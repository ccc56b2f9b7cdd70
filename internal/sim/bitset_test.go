package sim

import (
	"reflect"
	"testing"
)

// TestBitsetAppendTo: appendTo is forEach flattened into a slice
// append — the multi-VC movement seeding uses it every cycle, so it
// must agree with forEach exactly and respect the destination's
// existing contents.
func TestBitsetAppendTo(t *testing.T) {
	const n = 300
	b := newBitset(n)
	for _, i := range []int32{0, 1, 63, 64, 127, 128, 200, 298, 299} {
		b.set(i)
	}
	var want []int32
	b.forEach(func(i int32) { want = append(want, i) })
	got := b.appendTo(nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appendTo(nil) = %v, want %v", got, want)
	}
	pre := b.appendTo([]int32{-7})
	if len(pre) != len(want)+1 || pre[0] != -7 || !reflect.DeepEqual(pre[1:], want) {
		t.Errorf("appendTo kept-prefix = %v, want [-7 %v]", pre, want)
	}
	if out := newBitset(n).appendTo(nil); len(out) != 0 {
		t.Errorf("appendTo on empty set = %v, want none", out)
	}
}
