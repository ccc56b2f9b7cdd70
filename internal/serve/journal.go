package serve

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"turnmodel/internal/jsonl"
)

// The job journal is the store's write-ahead log: one JSON object per
// line, append-only, recording every lifecycle transition of every
// admitted job. It follows the torn-line-tolerant checkpoint pattern of
// internal/explore's campaign log — a process killed mid-write leaves
// at most one unparsable final line, which replay skips — so a SIGKILL
// at any point lets the next start converge to the same terminal state
// an uninterrupted server would have reached:
//
//   - submit + no terminal entry  -> the job is re-queued and re-run
//     (the engine is deterministic, so the re-run's figure JSON is
//     byte-identical to what the killed run would have produced);
//   - done                        -> the result is served from the
//     journal without running a single leaf;
//   - poisoned                    -> the job is quarantined and never
//     re-executed (the crash-loop guard for panicking inputs);
//   - failed / canceled / timeout -> the job stays terminal; only a
//     fresh submission replaces it.
type journalEntry struct {
	// Type is "submit", "start", or a terminal state: "done",
	// "failed", "canceled", "timeout", "poisoned".
	Type string `json:"type"`
	// ID is the content-addressed job ID every entry is keyed by.
	ID string `json:"id"`
	// Submit entries carry the request, its canonical cache key and
	// the admission timestamp (RFC 3339 with nanoseconds).
	Req  *JobRequest `json:"req,omitempty"`
	Key  string      `json:"key,omitempty"`
	Time string      `json:"time,omitempty"`
	// Start entries carry the 1-based execution attempt, counting
	// crash replays.
	Attempt int `json:"attempt,omitempty"`
	// Done entries carry the figure JSON verbatim. It is stored as a
	// JSON string — newlines escape to \n — so the entry stays one
	// line and the bytes round-trip exactly.
	Result   string `json:"result,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Terminal failures carry the error; poisoned entries also carry
	// the panic stack.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// journal is the append-only on-disk log. A nil *journal is a valid
// no-op journal (the store without a JournalPath).
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal reads the existing log tolerantly and opens it for
// appending. A missing file is an empty journal. If the file does not
// end in a newline (the previous process died mid-write), a newline is
// appended first so the torn tail stays an isolated garbage line
// instead of corrupting the next entry.
func openJournal(path string) (*journal, []journalEntry, error) {
	entries, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			f.Write([]byte{'\n'})
		}
	}
	return &journal{f: f}, entries, nil
}

// readJournal parses the log, skipping blank and torn lines.
func readJournal(path string) ([]journalEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []journalEntry
	err = jsonl.Lines(f, func(line []byte) {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
			return // torn write from a killed process
		}
		out = append(out, e)
	})
	return out, err
}

// append writes one entry and syncs it to disk, so a terminal state
// acknowledged to a client survives even a machine crash.
func (jl *journal) append(e journalEntry) error {
	if jl == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return jl.f.Sync()
}

// Close closes the underlying file. The store calls it only after its
// workers have exited, so no append races the close.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// replayState is one job's folded journal state at startup.
type replayState struct {
	Req       JobRequest
	Key       string
	Submitted time.Time
	// Attempts counts start entries since the last submit: how many
	// times execution began, including runs lost to crashes.
	Attempts int
	// State is the folded lifecycle position: StateQueued or
	// StateRunning for a job the crash interrupted, or a terminal
	// state.
	State    JobState
	Result   string
	CacheHit bool
	Error    string
	Stack    string
}

// foldJournal reduces the entry sequence to per-job replay states,
// returning the job IDs in first-submission order (the deterministic
// re-queue order) alongside. A submit entry over a replaceable
// terminal state (failed, canceled, timeout) starts a fresh
// incarnation, mirroring Store.Submit's replacement rule; done and
// poisoned are never replaced.
func foldJournal(entries []journalEntry) ([]string, map[string]*replayState) {
	var order []string
	states := map[string]*replayState{}
	for _, e := range entries {
		st := states[e.ID]
		switch e.Type {
		case "submit":
			if st != nil && (st.State == StateDone || st.State == StatePoisoned) {
				continue // authoritative result; Submit would have deduped
			}
			fresh := replayState{Key: e.Key, State: StateQueued}
			if e.Req != nil {
				fresh.Req = *e.Req
			}
			if t, err := time.Parse(time.RFC3339Nano, e.Time); err == nil {
				fresh.Submitted = t
			}
			if st == nil {
				order = append(order, e.ID)
				states[e.ID] = &fresh
			} else {
				*st = fresh
			}
		case "start":
			if st == nil || st.State.terminal() {
				continue
			}
			st.Attempts++
			st.State = StateRunning
		case string(StateDone):
			if st == nil || st.State.terminal() {
				continue
			}
			st.State, st.Result, st.CacheHit = StateDone, e.Result, e.CacheHit
		case string(StateFailed), string(StateCanceled), string(StateTimeout), string(StatePoisoned):
			if st == nil || st.State.terminal() {
				continue
			}
			st.State, st.Error, st.Stack = JobState(e.Type), e.Error, e.Stack
		}
	}
	return order, states
}
