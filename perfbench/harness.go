package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cleo/internal/obs"
	"cleo/internal/serve"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	traced  bool
}

// request is one operation: a POST to path for tenant. traced is the same body with
// "trace": true (nil when the endpoint has no per-request trace), and plan
// the request's encoded logical plan (nil for non-query requests).
type request struct {
	tenant string
	path   string
	body   []byte
	traced []byte
	plan   []byte
}

// bench is one benchmark workload. generate builds every input from
// the seed and is excluded from setup_s; setup brings a fresh service to
// its serving state (training, warm caches) and is what setup_s measures.
type bench interface {
	name() string
	// rounds sizes a run: the whole rounds for the given --seconds.
	rounds(seconds int) int
	generate(seed int64, rounds int) error
	setup() (*server, error)
	// ops returns the timed requests of rounds [from, to).
	ops(from, to int) []request
	// check verifies one phase's successful responses; an error is an
	// incorrect output.
	check(s *server, ph *phase) error
	// layers adds the workload's own per-layer metrics, given the
	// untraced phase a and the traced phase b, recording any spans of its
	// own direct calls into the program's layers in tr.
	layers(s *server, a, b *phase, m map[string]float64, tr *tracer) error
}

// roundsFor scales a workload's rounds per 10 s of --seconds to the
// requested length, in whole rounds (at least one).
func roundsFor(seconds, per10s int) int {
	r := int(math.Round(float64(seconds*per10s) / 10))
	if r < 1 {
		r = 1
	}
	return r
}

// server is the service under test with its in-process handler.
type server struct {
	svc *serve.Service
	h   http.Handler
	// cleanup runs after the service closed (removes state directories).
	cleanup func()
}

// newServer builds the service as cmd/cleoserve does: a metrics registry
// and request coalescing on. Background retraining stays off so the
// timed phase never races a model swap.
func newServer(cfg serve.Config) *server {
	cfg.Metrics = obs.NewRegistry()
	cfg.Coalesce = true
	cfg.RetrainThreshold = 0
	svc := serve.NewService(cfg)
	return &server{svc: svc, h: serve.NewHandler(svc)}
}

func (s *server) close() {
	s.svc.Close()
	if s.cleanup != nil {
		s.cleanup()
	}
}

// do sends one request through the handler.
func (s *server) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// post sends a request that must succeed and decodes its response into v
// (v may be nil).
func (s *server) post(path string, body []byte, v any) error {
	code, resp := s.do(http.MethodPost, path, body)
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: %d: %s", path, code, bytes.TrimSpace(resp))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(resp, v)
}

// stats returns every tenant's /v1/stats entry, by tenant name.
func (s *server) stats() (map[string]serve.TenantStats, error) {
	code, body := s.do(http.MethodGet, "/v1/stats", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %d", code)
	}
	var all []serve.TenantStats
	if err := json.Unmarshal(body, &all); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	out := make(map[string]serve.TenantStats, len(all))
	for _, t := range all {
		out[t.Tenant] = t
	}
	return out, nil
}

// promSample is a scraped /metrics sample set: series (name plus
// rendered labels) to value.
type promSample map[string]float64

// scrape reads GET /metrics.
func (s *server) scrape() (promSample, error) {
	code, body := s.do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseProm(body)
}

// parseProm parses Prometheus text exposition lines into series values.
func parseProm(text []byte) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric (all label sets).
func (p promSample) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// snapshot is the service's counters at one instant.
type snapshot struct {
	prom  promSample
	stats map[string]serve.TenantStats
}

func (s *server) snapshot() (snapshot, error) {
	p, err := s.scrape()
	if err != nil {
		return snapshot{}, err
	}
	st, err := s.stats()
	return snapshot{prom: p, stats: st}, err
}

// tenantSum adds one counter over every tenant.
func (sn snapshot) tenantSum(f func(serve.TenantStats) float64) float64 {
	var t float64
	for _, st := range sn.stats {
		t += f(st)
	}
	return t
}

// phase is one timed sequence of operations and what it measured.
type phase struct {
	reqs   []request
	traced bool
	status []int
	// failed marks operations a check counted as failed although they
	// returned 200 (a known fault that repeats on every run).
	failed []bool
	bodies [][]byte
	lat    []time.Duration // ServeHTTP time per operation
	start  []time.Duration // operation start, from the phase's start
	wall   time.Duration
	cpu    time.Duration // process user+system time over the phase
	alloc  float64       // heap bytes allocated over the phase
	gcs    float64       // GC cycles over the phase
	pause  float64       // GC stop-the-world seconds over the phase
	rss    float64       // peak resident set (MiB) at the phase's end

	before, after snapshot
}

// ok counts the operations that succeeded.
func (ph *phase) ok() int {
	n := 0
	for i, c := range ph.status {
		if c == http.StatusOK && !ph.failed[i] {
			n++
		}
	}
	return n
}

// runPhase sends reqs, whole rounds of perRound operations, through the
// handler from one closed-loop client. Requests and recorders are built
// and the heap collected before the clock starts; only ServeHTTP is
// inside each operation's latency.
func (s *server) runPhase(reqs []request, perRound int, traced bool) (*phase, error) {
	ph := &phase{reqs: reqs, traced: traced,
		status: make([]int, len(reqs)), failed: make([]bool, len(reqs)), bodies: make([][]byte, len(reqs)),
		lat: make([]time.Duration, len(reqs)), start: make([]time.Duration, len(reqs))}
	hreqs := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i, r := range reqs {
		body := r.body
		if traced && r.traced != nil {
			body = r.traced
		}
		hreqs[i] = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	var err error
	if ph.before, err = s.snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	idle := runtime.NumGoroutine()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := range hreqs {
		start := time.Now()
		s.h.ServeHTTP(recs[i], hreqs[i])
		ph.lat[i] = time.Since(start)
		ph.start[i] = start.Sub(t0)
		if (i+1)%perRound == 0 {
			if err := settle(idle); err != nil {
				return nil, err
			}
		}
	}
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	ph.alloc = rt1.alloc - rt0.alloc
	ph.gcs = rt1.gcs - rt0.gcs
	ph.pause = rt1.pause - rt0.pause
	ph.rss = maxRSSMiB()
	for i, rec := range recs {
		ph.status[i] = rec.Code
		ph.bodies[i] = rec.Body.Bytes()
	}
	if ph.after, err = s.snapshot(); err != nil {
		return nil, err
	}
	return ph, nil
}

// settleWindow bounds how long a round may wait for the background work
// its requests started.
const settleWindow = 60 * time.Second

// settle waits, inside the round's clock, until the goroutines that the
// round's requests started in the background have ended (the count is
// back to idle, the count before the phase). On trace-serve every request
// registers new tables and starts a goroutine that writes the tenant's
// whole table catalog to its state directory; without the wait, how many
// of those writes land inside a round's wall, CPU and allocation figures
// would follow the machine's timing rather than the round's work.
func settle(idle int) error {
	deadline := time.Now().Add(settleWindow)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running %v after the round, %d before the phase",
				runtime.NumGoroutine(), settleWindow, idle)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters are cumulative Go runtime figures from runtime/metrics.
type runtimeCounters struct {
	alloc, gcs, pause float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.alloc = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcs = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		c.pause = histogramTotal(s[2].Value.Float64Histogram())
	}
	return c
}

// histogramTotal estimates the sum of a runtime/metrics histogram from
// its bucket midpoints (infinite edges fall back to the finite one).
func histogramTotal(h *metrics.Float64Histogram) float64 {
	var t float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		t += mid * float64(n)
	}
	return t
}

// quantile returns the q-quantile of d by nearest rank.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of d (the mean of the middle two when the
// count is even).
func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd lists the untraced run's metrics, computed from its timed
// phase and its set-up time. Throughput, CPU and allocation per operation
// are over the whole phase.
var endToEnd = []struct {
	name, unit string
	value      func(a *phase, setup time.Duration) float64
}{
	{"setup_s", "s", func(_ *phase, setup time.Duration) float64 { return setup.Seconds() }},
	{"ops_per_s", "op/s", func(a *phase, _ time.Duration) float64 {
		return float64(len(a.reqs)) / a.wall.Seconds()
	}},
	{"latency_p50_ms", "ms", func(a *phase, _ time.Duration) float64 { return ms(median(a.lat)) }},
	{"cpu_ms_per_op", "ms", func(a *phase, _ time.Duration) float64 {
		return ms(a.cpu) / float64(len(a.reqs))
	}},
	{"alloc_kb_per_op", "KiB", func(a *phase, _ time.Duration) float64 {
		return a.alloc / 1024 / float64(len(a.reqs))
	}},
}

// run executes one benchmark invocation end to end.
func run(w bench, cfg config) (*result, error) {
	rounds := w.rounds(cfg.seconds)
	split := rounds // untraced rounds [0, split), traced [split, rounds)
	if cfg.traced {
		if rounds < 2 {
			rounds = 2
		}
		split = rounds / 2
	}
	genStart := time.Now()
	if err := w.generate(cfg.seed, rounds); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	genDur := time.Since(genStart)
	s, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	setup := time.Since(processStart) - genDur

	res := &result{Correct: true, Metrics: map[string]metric{}}
	// Each phase is checked before the next one starts, so a check that
	// waits for the service to drain sees only its own phase's work.
	runChecked := func(from, to int, traced bool) (*phase, error) {
		reqs := w.ops(from, to)
		ph, err := s.runPhase(reqs, len(reqs)/(to-from), traced)
		if err != nil {
			return nil, err
		}
		if err := w.check(s, ph); err != nil {
			fmt.Println("perfbench: output check failed:", err)
			res.Correct = false
		}
		res.Attempted += len(ph.reqs)
		res.Failed += len(ph.reqs) - ph.ok()
		return ph, nil
	}
	a, err := runChecked(0, split, false)
	if err != nil {
		return nil, err
	}
	var b *phase
	if cfg.traced {
		if b, err = runChecked(split, rounds, true); err != nil {
			return nil, err
		}
	}
	if !cfg.traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: m.value(a, setup), Unit: m.unit}
		}
		return res, nil
	}
	vals, err := layerValues(s, w, a, b, cfg)
	if err != nil {
		return nil, err
	}
	for _, l := range layerMetrics() {
		res.Metrics[l.Name] = metric{Value: vals[l.Name], Unit: l.Unit}
	}
	return res, nil
}
