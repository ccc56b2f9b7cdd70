package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// sseEvent is one Server-Sent Event as the client saw it: its type,
// its data (multi-line data joined with newlines) and the time its
// terminating blank line arrived.
type sseEvent struct {
	Type string
	Data string
	At   time.Time
}

// readSSE parses an SSE stream until EOF, calling onEvent as each event
// completes. Comment lines and fields other than event and data are
// skipped; an event still open at EOF is an error, because the
// turnserver ends every event with a blank line.
func readSSE(r io.Reader, onEvent func(sseEvent)) error {
	br := bufio.NewReader(r)
	var ev sseEvent
	var data []string
	open := false
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case err == io.EOF && line == "":
			if open {
				return fmt.Errorf("sse: stream ended inside event %q", ev.Type)
			}
			return nil
		case line == "":
			if open {
				ev.Data = strings.Join(data, "\n")
				ev.At = time.Now()
				onEvent(ev)
			}
			ev, data, open = sseEvent{}, nil, false
		case strings.HasPrefix(line, ":"):
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "event":
				ev.Type = value
				open = true
			case "data":
				data = append(data, value)
				open = true
			}
		}
		if err == io.EOF {
			// A last line without its newline: the event it belongs to
			// never got its terminating blank line.
			return fmt.Errorf("sse: stream ended inside event %q", ev.Type)
		}
	}
}

// parseMetrics reads a Prometheus text exposition into sample name
// (labels included, as written) → value. Comment lines are skipped; a
// malformed sample line is an error. Samples carry no timestamps in the
// turnserver's exposition.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}
