package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"turnmodel/internal/exp"
	"turnmodel/internal/routing"
	"turnmodel/internal/serve"
)

// The serve-mix job mix. A pass is a fixed schedule of cold and repeat
// jobs in a 60/40 split; a run makes passes until its time is up and
// each class has at least mixMinJobs jobs, enough for a p95 with ten
// samples beyond it.
const (
	mixCold         = 60
	mixRepeat       = 40
	mixMinJobs      = 200
	mixWarmup       = 200 // cycles: the CI smoke job's window
	mixMeasure      = 500
	mixReplaySample = 20
)

// mixFigures are the figures cold jobs draw from.
var mixFigures = []string{"fig13", "fig15"}

// scratchDir is where serve-mix keeps its journal, inside the
// directory the benchmark runs from.
var scratchDir = filepath.Join(".bench_build", "tmp")

// jobRequest is the part of the POST /v1/jobs body the benchmark uses.
// It is declared here, not taken from serve.JobRequest, so that the
// benchmark sends no implementation knob the service may drop.
type jobRequest struct {
	Figure        string    `json:"figure"`
	Quick         bool      `json:"quick"`
	Seed          int64     `json:"seed"`
	Loads         []float64 `json:"loads"`
	WarmupCycles  int64     `json:"warmup_cycles"`
	MeasureCycles int64     `json:"measure_cycles"`
}

// mixJob is one scheduled job: a cold configuration, or a repeat of a
// completed one whose result must come back byte-identical.
type mixJob struct {
	req  jobRequest
	want []byte // repeats: the original result
}

// jobOutcome is what a client measured for one job.
type jobOutcome struct {
	err    error
	result []byte
	// Times from POST sent: submit returned, "running" event, terminal
	// event, end of stream, and the GET result round trip.
	submit, running, terminal, end, resultRTT time.Duration
}

// runServeMix drives an in-process turnserver (serve.NewStore with a
// journal, behind serve.NewServer on a loopback listener) with a closed
// loop of one client per CPU. Each client submits a job, streams its
// SSE events to the last byte, fetches the result, then takes the next
// job. Afterwards the store is closed, reopened on its journal, and a
// sample of the completed jobs is resubmitted: their results must come
// back byte-identical from the replayed journal.
func runServeMix(b *bench) error {
	b.wallName = "pass_s"
	figs := make([]exp.FigureSpec, len(mixFigures))
	for i, id := range mixFigures {
		figs[i] = figure(id)
	}
	compileMs, tableBytes, err := compileFigures(figs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "serve-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.jsonl")
	srv, _, err := startServer(journal)
	if err != nil {
		return err
	}
	defer srv.close()
	cl := newClient(srv.base)
	// Warm-up: one job per figure, which also seeds the pool of
	// completed jobs the first pass repeats.
	var pool []mixJob
	for i, f := range mixFigures {
		req := coldRequest(f, figs[i].Loads[0], warmSeed(b.seed, i))
		o := cl.do(mixJob{req: req})
		if o.err != nil {
			return fmt.Errorf("warm-up job: %w", o.err)
		}
		pool = append(pool, mixJob{req: req, want: o.result})
	}
	if b.setupDone() {
		return nil
	}

	compiles := routing.CompileCount()
	before, err := cl.metrics()
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	var cold, repeats []jobOutcome
	var tracedPass, plainPass []float64
	jobs, passTime := 0, 0.0
	minPasses := (mixMinJobs + mixRepeat - 1) / mixRepeat
	err = b.repeat(minPasses, func(p int) error {
		sched := schedule(b.seed, p, figs, pool)
		outs := make([]jobOutcome, len(sched))
		traced := b.trace && p%2 == 1
		m, err := timed(func() error {
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < len(sched); i = int(next.Add(1)) - 1 {
						outs[i] = cl.do(sched[i])
					}
				}()
			}
			wg.Wait()
			if traced {
				_, err := cl.metrics()
				return err
			}
			return nil
		})
		if err != nil {
			return err
		}
		b.addTimed(m)
		if traced {
			tracedPass = append(tracedPass, m.wall.Seconds())
		} else {
			plainPass = append(plainPass, m.wall.Seconds())
		}
		jobs += len(sched)
		passTime += m.wall.Seconds()
		b.add("jobs_per_s", "1/s", float64(len(sched))/m.wall.Seconds())
		var coldResults [][]byte
		for i, o := range outs {
			b.op(o.err)
			if sched[i].want != nil {
				repeats = append(repeats, o)
				b.add("repeat_ms", "ms", ms(o.end))
				continue
			}
			cold = append(cold, o)
			b.add("job_ms", "ms", ms(o.end))
			coldResults = append(coldResults, o.result)
			if o.err == nil {
				pool = append(pool, mixJob{req: sched[i].req, want: o.result})
			}
		}
		if p == 0 {
			b.setDigest(coldResults...)
		}
		return nil
	})
	if err != nil {
		return err
	}
	after, err := cl.metrics()
	if err != nil {
		return err
	}
	inRun := routing.CompileCount() - compiles
	failRatio := float64(b.failed) / float64(b.attempted)
	b.add("fail_ratio", "ratio", failRatio)

	// Restart on the journal and resubmit a sample of completed jobs.
	srv.close()
	info, err := os.Stat(journal)
	if err != nil {
		return err
	}
	srv, replay, err := startServer(journal)
	if err != nil {
		return err
	}
	defer srv.close()
	cl = newClient(srv.base)
	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < mixReplaySample; i++ {
		j := pool[rng.Intn(len(pool))]
		o := cl.do(j)
		if o.err != nil {
			o.err = fmt.Errorf("after journal replay: %w", o.err)
		}
		b.op(o.err)
	}

	if b.trace {
		all := append(append([]jobOutcome(nil), cold...), repeats...)
		end := func(o jobOutcome) time.Duration { return o.end }
		coldMs, repeatMs := phase(cold, end), phase(repeats, end)
		counter := func(name string) float64 { return after[name] - before[name] }
		b.setLayer("routing.compile_ms", compileMs)
		b.setLayer("routing.table_mb", tableBytes/(1<<20))
		b.setLayer("routing.compiles_in_run", float64(inRun))
		b.setLayer("serve.jobs_per_s", float64(jobs)/passTime)
		b.setLayer("serve.job_p50_ms", percentile(coldMs, 50))
		b.setLayer("serve.job_p95_ms", percentile(coldMs, 95))
		b.setLayer("serve.repeat_p50_ms", percentile(repeatMs, 50))
		b.setLayer("serve.repeat_p95_ms", percentile(repeatMs, 95))
		b.setLayer("serve.fail_ratio", failRatio)
		b.setLayer("serve.submit_ms", median(phase(all, func(o jobOutcome) time.Duration { return o.submit })))
		b.setLayer("serve.queue_wait_ms", median(phase(cold, func(o jobOutcome) time.Duration { return o.running - o.submit })))
		b.setLayer("serve.run_ms", median(phase(cold, func(o jobOutcome) time.Duration { return o.terminal - o.running })))
		b.setLayer("serve.deliver_ms", median(phase(all, func(o jobOutcome) time.Duration { return o.end - o.terminal })))
		b.setLayer("serve.result_ms", median(phase(all, func(o jobOutcome) time.Duration { return o.resultRTT })))
		b.setLayer("serve.replay_ms", ms(replay))
		b.setLayer("serve.deduped", counter("turnserver_jobs_deduped_total"))
		b.setLayer("serve.leaves_run", counter("turnserver_sim_leaves_run_total"))
		b.setLayer("serve.rejected", counter("turnserver_jobs_rejected_total"))
		b.setLayer("serve.cache_hits", counter("turnserver_job_cache_hits_total"))
		b.setLayer("serve.journal_bytes_per_job", float64(info.Size())/float64(len(pool)))
		b.setLayer("bench.trace_overhead_ratio", median(tracedPass)/median(plainPass))
	}
	return nil
}

// phase collects one measured interval of each outcome, in ms.
func phase(outs []jobOutcome, f func(jobOutcome) time.Duration) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = ms(f(o))
	}
	return v
}

// warmSeed and coldSeed give every cold job of a run a seed of its own
// (pass < 999, job < 1000), so no cold job can hit the sweep cache.
func warmSeed(seed int64, i int) int64 { return seed*1_000_000 + 999_000 + int64(i) }

func coldSeed(seed int64, pass, k int) int64 {
	return seed*1_000_000 + int64(pass)*1000 + int64(k)
}

// coldRequest is a small single-load job in the CI smoke's shape.
func coldRequest(fig string, load float64, seed int64) jobRequest {
	return jobRequest{Figure: fig, Quick: true, Seed: seed, Loads: []float64{load},
		WarmupCycles: mixWarmup, MeasureCycles: mixMeasure}
}

// schedule lays out pass p: mixCold new jobs (a random figure and load
// point, a fresh seed) and mixRepeat repeats drawn from the jobs
// completed before the pass, shuffled. It depends only on the seed, the
// pass and the pool, so the same seed gives the same inputs.
func schedule(seed int64, p int, figs []exp.FigureSpec, pool []mixJob) []mixJob {
	rng := rand.New(rand.NewSource(seed*7919 + int64(p)))
	var sched []mixJob
	for k := 0; k < mixCold; k++ {
		f := figs[rng.Intn(len(figs))]
		sched = append(sched, mixJob{req: coldRequest(f.ID, f.Loads[rng.Intn(len(f.Loads))], coldSeed(seed, p, k))})
	}
	for k := 0; k < mixRepeat; k++ {
		sched = append(sched, pool[rng.Intn(len(pool))])
	}
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	return sched
}

// mixServer is an in-process turnserver on a loopback listener.
type mixServer struct {
	store  *serve.Store
	hs     *http.Server
	base   string
	served chan error
	once   sync.Once
}

// startServer opens the store on journal and serves it over HTTP. It
// also returns the time serve.NewStore took (the journal replay).
func startServer(journal string) (*mixServer, time.Duration, error) {
	t0 := time.Now()
	store, err := serve.NewStore(serve.Config{JournalPath: journal})
	replay := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, 0, err
	}
	s := &mixServer{
		store:  store,
		hs:     &http.Server{Handler: serve.NewServer(store, nil, nil)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, replay, nil
}

// close stops the listener, waits for the serving goroutine and closes
// the store (and its journal). It is safe to call twice.
func (s *mixServer) close() {
	s.once.Do(func() {
		s.hs.Close()
		<-s.served
		s.store.Close()
	})
}

// client talks to one mixServer.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}}
}

// do runs one job as a turnserver caller does: POST, SSE stream to the
// last byte, GET result. A cold job must be accepted as new (202) and
// a repeat answered with the existing job (200), and every result must
// match on the stream and the result endpoint (and, for a repeat, the
// original bytes).
func (c *client) do(j mixJob) (o jobOutcome) {
	repeat := j.want != nil
	t0 := time.Now()
	since := func(t time.Time) time.Duration { return t.Sub(t0) }
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(jsonBytes(j.req)))
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	var sub struct {
		ID        string `json:"id"`
		Existing  bool   `json:"existing"`
		StreamURL string `json:"stream_url"`
		ResultURL string `json:"result_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	o.submit = since(time.Now())
	wantCode := http.StatusAccepted
	if repeat {
		wantCode = http.StatusOK
	}
	switch {
	case resp.StatusCode != wantCode:
		o.err = fmt.Errorf("submit %s seed %d: status %d, want %d", j.req.Figure, j.req.Seed, resp.StatusCode, wantCode)
		return o
	case err != nil:
		o.err = fmt.Errorf("submit: decode response: %w", err)
		return o
	case sub.Existing != repeat:
		o.err = fmt.Errorf("submit %s seed %d: existing=%v for a repeat=%v job", j.req.Figure, j.req.Seed, sub.Existing, repeat)
		return o
	}

	resp, err = c.http.Get(c.base + sub.StreamURL)
	if err != nil {
		o.err = fmt.Errorf("stream: %w", err)
		return o
	}
	var last, sseResult string
	var ran, ended bool
	err = readSSE(resp.Body, func(ev sseEvent) {
		switch ev.Type {
		case "running":
			if !ran {
				o.running = since(ev.At)
				ran = true
			}
		case string(serve.StateDone), string(serve.StateFailed), string(serve.StateCanceled),
			string(serve.StateTimeout), string(serve.StatePoisoned):
			o.terminal = since(ev.At)
			ended = true
		case "result":
			sseResult = ev.Data
		}
		last = ev.Type
	})
	resp.Body.Close()
	o.end = since(time.Now())
	switch {
	case err != nil:
		o.err = fmt.Errorf("stream %s: %w", sub.ID, err)
		return o
	case last != "result" || !ended || !ran:
		o.err = fmt.Errorf("stream %s ended with event %q (running seen: %v), want a run ending in event: result", sub.ID, last, ran)
		return o
	}

	t1 := time.Now()
	resp, err = c.http.Get(c.base + sub.ResultURL)
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return o
	}
	o.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.resultRTT = time.Since(t1)
	switch {
	case err != nil:
		o.err = fmt.Errorf("result %s: %w", sub.ID, err)
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("result %s: status %d", sub.ID, resp.StatusCode)
	case strings.TrimRight(string(o.result), "\n") != sseResult:
		o.err = fmt.Errorf("result %s: GET body differs from the SSE result event", sub.ID)
	case repeat && !bytes.Equal(o.result, j.want):
		o.err = fmt.Errorf("result %s: repeat differs from the original result", sub.ID)
	}
	return o
}

// metrics scrapes /metrics.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("scrape /metrics: status " + resp.Status)
	}
	return parseMetrics(resp.Body)
}
