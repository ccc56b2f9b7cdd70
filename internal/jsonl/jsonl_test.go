package jsonl

import (
	"strings"
	"testing"
)

// TestLines: blank lines and lines past MaxLine are skipped, lines are
// trimmed, the last line needs no newline, and a line exactly MaxLine
// long still arrives.
func TestLines(t *testing.T) {
	exact := strings.Repeat("x", MaxLine-1)
	in := "a\n\n  b \r\n" + strings.Repeat("y", MaxLine) + "\n" + exact + "\nc"
	var got []string
	if err := Lines(strings.NewReader(in), func(l []byte) { got = append(got, string(l)) }); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", exact, "c"}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %.20q (len %d), want %.20q (len %d)", i, got[i], len(got[i]), want[i], len(want[i]))
		}
	}
}
