// Package jsonl reads the append-only JSON-lines logs the job journal
// and the turn-set campaign checkpoint to. A process killed mid-append
// leaves a torn line; readers skip it like any line that does not
// parse, and this package's reader also skips lines too long to be
// anything but torn or corrupt, without holding them in memory.
package jsonl

import (
	"bufio"
	"bytes"
	"io"
)

// MaxLine is the longest line, newline included, that Lines hands on.
const MaxLine = 1 << 24

// Lines calls fn with every non-blank line of r no longer than MaxLine,
// trimmed of surrounding white space; longer lines are skipped. The
// slice is valid only during the call. A final line need not end in a
// newline.
func Lines(r io.Reader, fn func(line []byte)) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var line []byte
	long := false
	for {
		chunk, err := br.ReadSlice('\n')
		if long || len(line)+len(chunk) > MaxLine {
			line, long = line[:0], true
		} else {
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue // the line goes on
		}
		if err != nil && err != io.EOF {
			return err
		}
		if l := bytes.TrimSpace(line); !long && len(l) > 0 {
			fn(l)
		}
		if err == io.EOF {
			return nil
		}
		line, long = line[:0], false
	}
}
