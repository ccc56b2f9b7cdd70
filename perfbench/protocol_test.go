package main

import (
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"turnmodel/internal/serve"
)

func TestReadSSE(t *testing.T) {
	stream := ": comment\n" +
		"event: queued\ndata: {\"type\":\"queued\"}\n\n" +
		"event: running\r\ndata: {\"type\":\"running\",\"attempt\":1}\r\n\r\n" +
		"event: done\ndata: {\"type\":\"done\"}\n\n" +
		"event: result\ndata: {\ndata:   \"id\": \"fig13\"\ndata: }\n\n"
	var types, data []string
	err := readSSE(strings.NewReader(stream), func(ev sseEvent) {
		if ev.At.IsZero() {
			t.Errorf("event %q has no arrival time", ev.Type)
		}
		types = append(types, ev.Type)
		data = append(data, ev.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"queued", "running", "done", "result"}; !reflect.DeepEqual(types, want) {
		t.Errorf("types %q, want %q", types, want)
	}
	if want := "{\n  \"id\": \"fig13\"\n}"; data[3] != want {
		t.Errorf("multi-line data %q, want %q", data[3], want)
	}
	if data[1] != `{"type":"running","attempt":1}` {
		t.Errorf("CRLF data %q", data[1])
	}
}

func TestReadSSETruncated(t *testing.T) {
	for _, stream := range []string{
		"event: done\ndata: {}\n",  // no terminating blank line
		"event: done\ndata: {}",    // torn last line
		"event: result\ndata: {\n", // torn inside a multi-line result
	} {
		n := 0
		err := readSSE(strings.NewReader(stream), func(sseEvent) { n++ })
		if err == nil || n != 0 {
			t.Errorf("readSSE(%q) = %v after %d events, want an error and no event", stream, err, n)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP turnserver_jobs_deduped_total Submissions answered with an existing job.\n" +
		"# TYPE turnserver_jobs_deduped_total counter\n" +
		"turnserver_jobs_deduped_total 12\n" +
		"\n" +
		"turnserver_ready 1\n" +
		"sim_latency_cycles{quantile=\"0.5\"} 3.5e+01\n"
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"turnserver_jobs_deduped_total":      12,
		"turnserver_ready":                   1,
		`sim_latency_cycles{quantile="0.5"}`: 35,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics = %v, want %v", got, want)
	}
	for _, bad := range []string{"turnserver_ready\n", "turnserver_ready one\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

// TestClientAgainstServer runs the serve-mix client protocol against a
// real store: a cold job, its repeat, and a repeat after the store is
// reopened on its journal, plus a /metrics scrape.
func TestClientAgainstServer(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	open := func() (*client, func()) {
		store, err := serve.NewStore(serve.Config{JournalPath: journal})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.NewServer(store, nil, nil))
		return newClient(ts.URL), func() { ts.Close(); store.Close() }
	}
	cl, stop := open()
	req := coldRequest("fig13", 0.5, 424242)
	cold := cl.do(mixJob{req: req})
	if cold.err != nil {
		t.Fatal(cold.err)
	}
	if !(cold.submit > 0 && cold.submit <= cold.running && cold.running <= cold.terminal && cold.terminal <= cold.end) {
		t.Errorf("cold job phases out of order: %+v", cold)
	}
	if o := cl.do(mixJob{req: req, want: cold.result}); o.err != nil {
		t.Fatal(o.err)
	}
	if o := cl.do(mixJob{req: req}); o.err == nil {
		t.Error("a known job submitted as cold was not flagged")
	}
	m, err := cl.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["turnserver_jobs_deduped_total"] != 2 || m["turnserver_sim_leaves_run_total"] != 4 {
		t.Errorf("metrics deduped=%v leaves=%v, want 2 and 4", m["turnserver_jobs_deduped_total"], m["turnserver_sim_leaves_run_total"])
	}
	stop()

	cl, stop = open()
	defer stop()
	if o := cl.do(mixJob{req: req, want: cold.result}); o.err != nil {
		t.Fatalf("after journal replay: %v", o.err)
	}
	tampered := append([]byte(nil), cold.result...)
	tampered[len(tampered)/2] ^= 1
	if o := cl.do(mixJob{req: req, want: tampered}); o.err == nil {
		t.Error("a result differing from the original was accepted")
	}
}
