package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fingerprint identifies the host and build a result was measured on, so
// a gap between two recorded numbers can be traced to hardware or code.
type fingerprint struct {
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Caches     map[string]string `json:"caches"`
	GoVersion  string            `json:"go_version"`
	GitCommit  string            `json:"git_commit"`
	SourceHash string            `json:"source_sha256"`
	WALFSType  string            `json:"wal_fs_type"`
}

func hostFingerprint(repoRoot, walDir string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caches:     cacheSizes(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(repoRoot),
		SourceHash: sourceHash(repoRoot),
		WALFSType:  fsType(walDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's cache hierarchy from sysfs: "L2" -> "2048K".
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		key := "L" + level
		switch typ {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = size
	}
	return out
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// gitCommit is the checkout's commit, or "none" when the tree is not a
// git repository (the source hash identifies the build then).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none" // do not report an enclosing repository's commit
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file of the tree (paths
// and contents, in path order), skipping build output and VCS metadata.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x01021997: "9p",
		0x65735546: "fuse",
		0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", uint64(st.Type))
}

// resetPeakRSS restarts the kernel's peak-RSS record for this process,
// so the peak read later covers only the workload, not the set-ups before
// it (Linux 4.0+; elsewhere the peak stays process-wide).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
