package parallel

import "sort"

// Sort sorts a in place using a parallel merge sort: the input is divided
// into runs that are sorted independently with the standard library's
// sort, then merged pairwise with parallel merges. Less must be a strict
// weak ordering. The sort is not stable.
func Sort[T any](a []T, less func(x, y T) bool) {
	n := len(a)
	p := Workers()
	if n < 4096 || p == 1 {
		sort.Slice(a, func(i, j int) bool { return less(a[i], a[j]) })
		return
	}
	// Number of initial runs: a power of two near 4p for load balance.
	runs := 1
	for runs < 4*p && runs < n/2048 {
		runs *= 2
	}
	runLen := ceilDiv(n, runs)
	For(runs, 1, func(r int) {
		lo := r * runLen
		hi := min(lo+runLen, n)
		if lo < hi {
			s := a[lo:hi]
			sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		}
	})
	buf := make([]T, n)
	src, dst := a, buf
	for width := runLen; width < n; width *= 2 {
		nPairs := ceilDiv(n, 2*width)
		For(nPairs, 1, func(pr int) {
			lo := pr * 2 * width
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			MergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		})
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		Copy(a, src)
	}
}

// SortUint32 sorts a slice of uint32 keys in parallel.
func SortUint32(a []uint32) {
	Sort(a, func(x, y uint32) bool { return x < y })
}

// MergeInto merges the sorted slices x and y into out, which must have
// length len(x)+len(y). Large merges are split recursively by a median
// pick so the merge itself runs in parallel.
func MergeInto[T any](out, x, y []T, less func(a, b T) bool) {
	const serialMerge = 8192
	if len(x)+len(y) <= serialMerge || Workers() == 1 {
		serialMergeInto(out, x, y, less)
		return
	}
	// Split the larger input at its midpoint and binary-search the split
	// point in the other input.
	if len(x) < len(y) {
		// Keep x as the larger side; the merge is symmetric.
		mergeSwapped(out, y, x, less)
		return
	}
	mid := len(x) / 2
	pivot := x[mid]
	// Find the first y index not less than pivot.
	j := sort.Search(len(y), func(i int) bool { return !less(y[i], pivot) })
	Do(
		func() { MergeInto(out[:mid+j], x[:mid], y[:j], less) },
		func() { MergeInto(out[mid+j:], x[mid:], y[j:], less) },
	)
}

// mergeSwapped merges with x the larger side but y logically first: it must
// preserve merge semantics for equal elements irrespective of argument
// order, which holds because MergeInto is not stable.
func mergeSwapped[T any](out, x, y []T, less func(a, b T) bool) {
	mid := len(x) / 2
	pivot := x[mid]
	j := sort.Search(len(y), func(i int) bool { return less(pivot, y[i]) })
	Do(
		func() { MergeInto(out[:mid+j], x[:mid], y[:j], less) },
		func() { MergeInto(out[mid+j:], x[mid:], y[j:], less) },
	)
}

func serialMergeInto[T any](out, x, y []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(y[j], x[i]) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	copy(out[k:], x[i:])
	copy(out[k+len(x)-i:], y[j:])
}
