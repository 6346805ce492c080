package hp

import "fmt"

type thing struct{ buf []int }

// Bad violates every hot-path clause.
//
//cyclops:hotpath fixture
func (t *thing) Bad(n int) error {
	s := make([]int, n)
	t.buf = append(t.buf, n)
	other := append(s, 1)
	t.buf = other
	return fmt.Errorf("n=%d", n)
}

// Box returns a concrete value through an interface result.
//
//cyclops:hotpath fixture
func Box(v int) interface{} {
	return v
}

// Convert boxes explicitly and implicitly.
//
//cyclops:hotpath fixture
func Convert(v int) {
	x := interface{}(v)
	_ = x
	sink(v)
}

func sink(v interface{}) { _ = v }

// NotHot does all of the above unannotated — quiet.
func NotHot(n int) []int {
	return append([]int{}, n)
}

var errPrebuilt = fmt.Errorf("prebuilt")

// BatchFill is the SoA batch-kernel shape (gma.BeamBatch, the pointing
// solver's probe buffers): caller-owned parallel slices written in
// place, including prebuilt error values stored into an error slice.
// Writes through slice parameters are not allocations and must stay
// clean — only the creation of the buffers is hot-path-hostile, and that
// happens at the caller.
//
//cyclops:hotpath fixture
func BatchFill(dst []int, errs []error, src []int) {
	out := dst[:len(src)]
	for i := range src {
		if src[i] < 0 {
			out[i] = 0
			errs[i] = errPrebuilt
			continue
		}
		out[i] = src[i] * 2
		errs[i] = nil
	}
}

// Allowed suppresses a justified allocation.
//
//cyclops:hotpath fixture
func Allowed() int {
	//cyclops:alloc-ok warmup allocation, measured at zero steady-state by the alloc gate
	s := make([]int, 4)
	return len(s)
}
