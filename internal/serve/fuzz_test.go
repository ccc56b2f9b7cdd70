package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"turnmodel/internal/exp"
)

// FuzzJobRequest drives an arbitrary POST /v1/jobs body through the
// HTTP decode and validate. Nothing may panic, and a request the
// service accepts must have a stable content address: decoding it,
// encoding it and decoding again yields the same exp.CacheKey, so a
// job journaled and replayed, or resubmitted by a client that echoes
// the request, lands on the same job.
func FuzzJobRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		fig, err := req.validate()
		if err != nil {
			return
		}
		key := exp.CacheKey(fig, req.options())
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		again, err := decodeJobRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", enc, err)
		}
		fig2, err := again.validate()
		if err != nil {
			t.Fatalf("re-encoded request %s no longer validates: %v", enc, err)
		}
		if key2 := exp.CacheKey(fig2, again.options()); key2 != key {
			t.Fatalf("content address changed across a round trip of %q:\n%s\n%s", body, key, key2)
		}
	})
}

// The valid journal every FuzzJournalReplay input is appended to: one
// job done, one poisoned and one interrupted after its first start.
const (
	fuzzDoneID     = "done-job"
	fuzzPoisonedID = "poisoned-job"
	fuzzCrashedID  = "crashed-job"
	// fuzzResult needs escaping in JSON (quotes, newlines, a
	// backslash, non-ASCII), so a byte-identical replay is not trivial.
	fuzzResult = "{\n  \"figure\": \"fig13\",\n  \"note\": \"a\\\\b ünï\"\n}\n"
)

func fuzzJournalPrefix(t testing.TB) []byte {
	req := quickReq(7001)
	var buf bytes.Buffer
	for _, e := range []journalEntry{
		{Type: "submit", ID: fuzzDoneID, Req: &req, Key: "k1", Time: "2026-01-02T03:04:05.000000006Z"},
		{Type: "start", ID: fuzzDoneID, Attempt: 1},
		{Type: string(StateDone), ID: fuzzDoneID, Result: fuzzResult},
		{Type: "submit", ID: fuzzPoisonedID, Req: &req, Key: "k2"},
		{Type: "start", ID: fuzzPoisonedID, Attempt: 1},
		{Type: string(StatePoisoned), ID: fuzzPoisonedID, Error: "panic: boom", Stack: "goroutine 1 [running]:\nmain.main()"},
		{Type: "submit", ID: fuzzCrashedID, Req: &req, Key: "k3"},
		{Type: "start", ID: fuzzCrashedID, Attempt: 1},
	} {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// FuzzJournalReplay appends arbitrary or torn bytes to a valid journal
// and replays it. Replay must not panic, must never re-queue or re-run
// a poisoned job, and must serve the valid prefix's completed result
// byte-identically whatever follows it.
func FuzzJournalReplay(f *testing.F) {
	prefix := fuzzJournalPrefix(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, append(append([]byte(nil), prefix...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		jl, entries, err := openJournal(path)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		_, states := foldJournal(entries)
		if st := states[fuzzDoneID]; st == nil || st.State != StateDone || st.Result != fuzzResult {
			t.Fatalf("fold lost the completed result: %+v", st)
		}
		var poisoned []string
		for id, st := range states {
			if st.State == StatePoisoned {
				poisoned = append(poisoned, id)
			}
		}
		if states[fuzzPoisonedID].State != StatePoisoned {
			t.Fatalf("fold revived the poisoned job: %+v", states[fuzzPoisonedID])
		}
		replayed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// RetryLimit 1 fails the crashed job at replay instead of
		// re-running it; jobs the tail queues are canceled by Close.
		s, err := NewStore(Config{Jobs: 1, JournalPath: path, RetryLimit: 1})
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		for _, id := range poisoned {
			if j, ok := s.Get(id); !ok || j.State() != StatePoisoned {
				s.Close()
				t.Fatalf("poisoned job %q not quarantined after replay", id)
			}
		}
		var res []byte
		done := false
		if j, ok := s.Get(fuzzDoneID); ok {
			res, done = j.Result()
		}
		s.Close()
		if !done || string(res) != fuzzResult {
			t.Fatalf("completed result not served byte-identically: %q", res)
		}

		// Nothing the store appended may start a poisoned job.
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(after[len(replayed):], []byte("\n")) {
			var e journalEntry
			if json.Unmarshal(line, &e) != nil || e.Type != "start" {
				continue
			}
			if states[e.ID] != nil && states[e.ID].State == StatePoisoned {
				t.Fatalf("store re-ran poisoned job %q", e.ID)
			}
		}
	})
}
