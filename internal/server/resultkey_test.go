package server

import (
	"testing"

	"sage"
)

func TestResultKeyCanonical(t *testing.T) {
	// Omitted parameters and their explicit zero canonicalize alike, so
	// they share an entry.
	keyOf := func(algo string, a sage.AlgoArgs) string {
		t.Helper()
		canon, err := sage.CanonicalArgs(algo, a)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey("web", 1, algo, canon)
	}
	if a, b := keyOf("pagerank", sage.AlgoArgs{}), keyOf("pagerank", sage.AlgoArgs{Eps: 0}); a != b {
		t.Fatalf(`{} and {"eps":0} keys differ: %q vs %q`, a, b)
	}
	if a, b := keyOf("bfs", sage.AlgoArgs{}), keyOf("bfs", sage.AlgoArgs{Eps: 0.5}); a != b {
		t.Fatalf("a parameter bfs does not take split the key: %q vs %q", a, b)
	}

	// Any difference in what is computed, or on which dataset version,
	// gives a distinct key.
	base := sage.AlgoArgs{Src: 1, K: 4, Eps: 1e-3, MaxIters: 10, Beta: 0.2,
		Damping: 0.85, NumSets: 5, MaxSize: 7}
	variants := map[string]func(a *sage.AlgoArgs) (string, uint64, string){
		"base":     func(a *sage.AlgoArgs) (string, uint64, string) { return "web", 1, "ppr" },
		"src":      func(a *sage.AlgoArgs) (string, uint64, string) { a.Src = 2; return "web", 1, "ppr" },
		"k":        func(a *sage.AlgoArgs) (string, uint64, string) { a.K = 5; return "web", 1, "ppr" },
		"eps":      func(a *sage.AlgoArgs) (string, uint64, string) { a.Eps = 1e-4; return "web", 1, "ppr" },
		"maxiters": func(a *sage.AlgoArgs) (string, uint64, string) { a.MaxIters = 11; return "web", 1, "ppr" },
		"beta":     func(a *sage.AlgoArgs) (string, uint64, string) { a.Beta = 0.3; return "web", 1, "ppr" },
		"damping":  func(a *sage.AlgoArgs) (string, uint64, string) { a.Damping = 0.9; return "web", 1, "ppr" },
		"numsets":  func(a *sage.AlgoArgs) (string, uint64, string) { a.NumSets = 6; return "web", 1, "ppr" },
		"maxsize":  func(a *sage.AlgoArgs) (string, uint64, string) { a.MaxSize = 8; return "web", 1, "ppr" },
		"dataset":  func(a *sage.AlgoArgs) (string, uint64, string) { return "road", 1, "ppr" },
		"gen":      func(a *sage.AlgoArgs) (string, uint64, string) { return "web", 2, "ppr" },
		"algo":     func(a *sage.AlgoArgs) (string, uint64, string) { return "web", 1, "pagerank" },
	}
	seen := map[string]string{}
	for name, vary := range variants {
		a := base
		ds, gen, algo := vary(&a)
		key := resultKey(ds, gen, algo, a)
		if other, dup := seen[key]; dup {
			t.Errorf("variants %s and %s share key %q", name, other, key)
		}
		seen[key] = name
	}
}
