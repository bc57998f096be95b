package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cleo/internal/serve"
	"cleo/internal/stats"
	"cleo/internal/workload"
)

// trace-serve replays a production-style trace (workload.Generate) as
// run-mode /v1/query requests on the default simulate backend, learned
// and resource-aware: one tenant per simulated cluster, every instance on
// new dated inputs sent in its request's tables, telemetry journaled to a
// state directory without fsync. Models are trained at set-up on the
// trace's first days; one further day warms the service, and each timed
// round is one later day, so no instance repeats within a run.
const (
	tsClusters    = 4
	tsTrainDays   = 2
	tsRoundOps    = 544 // jobs per day over all clusters: 4 × (40×3 recurring + 16 ad hoc)
	tsPer10s      = 5   // rounds (trace days) per 10 s of --seconds
	tsDrainWindow = 60 * time.Second
)

type traceServe struct {
	train, warm []request
	days        [][]request // timed rounds, one trace day each

	versions  map[string]int64 // tenant → model version trained at set-up
	logSize   int              // telemetry records the log must hold once drained
	ingested  float64          // records ingested per operation, untraced phase
	simLat    float64          // mean simulated latency, untraced phase
	simProc   float64          // mean simulated processing time, untraced phase
	appendsAt promSample       // /metrics before the untraced phase
}

func (t *traceServe) name() string { return "trace-serve" }

func (t *traceServe) rounds(seconds int) int { return roundsFor(seconds, tsPer10s) }

func tenantOf(cluster int) string { return fmt.Sprintf("cluster%d", cluster) }

func (t *traceServe) generate(seed int64, rounds int) error {
	// The training days are the installation's history: the same models
	// serve every run.
	tr := fixedTrace(tsClusters, tsTrainDays+1+rounds, tsTrainDays, seed)
	byDay := make([][][]workload.Job, tr.Config.Days) // day → cluster → jobs
	for i := range byDay {
		byDay[i] = make([][]workload.Job, tsClusters)
	}
	for _, j := range tr.Jobs {
		byDay[j.Day][j.Cluster] = append(byDay[j.Day][j.Cluster], j)
	}
	rng := rand.New(rand.NewSource(seed))
	for day, clusters := range byDay {
		for _, jobs := range clusters {
			rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		}
		var reqs []request
		// Interleave the tenants, as concurrent pipelines would.
		for i := 0; ; i++ {
			more := false
			for cl, jobs := range clusters {
				if i >= len(jobs) {
					continue
				}
				more = true
				r, err := traceRequest(tr, cl, jobs[i], day >= tsTrainDays)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if !more {
				break
			}
		}
		if len(reqs) != tsRoundOps {
			return fmt.Errorf("trace day %d has %d jobs, want %d", day, len(reqs), tsRoundOps)
		}
		switch {
		case day < tsTrainDays:
			t.train = append(t.train, reqs...)
		case day == tsTrainDays:
			t.warm = reqs
		default:
			t.days = append(t.days, reqs)
		}
	}
	return nil
}

// traceSeed fixes the generated production installation — its clusters,
// recurring templates and dated inputs — for every run. A trace of 160
// recurring templates is small enough that drawing the templates from the
// run's seed moved throughput by ±20 % between seeds; the run's seed
// instead draws the jobs' execution seeds and each day's arrival order.
const traceSeed = 2020

// fixedTrace generates the installation's trace and re-draws from seed
// the execution seed of every job on day fromDay or later.
func fixedTrace(clusters, days, fromDay int, seed int64) *workload.Trace {
	cfg := workload.DefaultConfig()
	cfg.Clusters = clusters
	cfg.Days = days
	cfg.Seed = traceSeed
	tr := workload.Generate(cfg)
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Jobs {
		if tr.Jobs[i].Day >= fromDay {
			tr.Jobs[i].Seed = rng.Int63()
		}
	}
	return tr
}

// traceRequest builds one job's run-mode request, carrying its dated
// inputs' statistics. Training-day jobs run on the default cost model
// (the telemetry the first models learn from).
func traceRequest(tr *workload.Trace, cluster int, j workload.Job, learned bool) (request, error) {
	tables := map[string]stats.TableStats{}
	for _, leaf := range j.Query.Leaves() {
		ts, ok := tr.Catalogs[cluster].Table(leaf.Table)
		if !ok {
			return request{}, fmt.Errorf("job %s: table %s not in its cluster's catalog", j.ID, leaf.Table)
		}
		tables[leaf.Table] = ts
	}
	return queryRequest(serve.QueryRequest{
		Tenant:        tenantOf(cluster),
		Mode:          "run",
		Seed:          j.Seed,
		Param:         j.Param,
		UseLearned:    boolPtr(learned),
		ResourceAware: true,
		Tables:        tables,
		Plan:          j.Query,
	})
}

func (t *traceServe) setup() (*server, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("state-trace-serve-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := newServer(serve.Config{StateDir: dir})
	s.cleanup = func() { os.RemoveAll(dir) }
	if !s.svc.PersistEnabled() {
		s.close()
		return nil, fmt.Errorf("state directory %s unusable", dir)
	}
	fail := func(err error) (*server, error) {
		s.close()
		return nil, err
	}
	for _, r := range t.train {
		var qr queryResult
		if err := s.post(r.path, r.body, &qr); err != nil {
			return fail(err)
		}
		t.logSize += qr.Summary.NumOps
	}
	t.versions = map[string]int64{}
	for cl := 0; cl < tsClusters; cl++ {
		var rr retrainResult
		r := retrainRequest(tenantOf(cl))
		if err := s.post(r.path, r.body, &rr); err != nil {
			return fail(err)
		}
		t.versions[tenantOf(cl)] = rr.Version.ID
	}
	for _, r := range t.warm {
		var qr queryResult
		if err := s.post(r.path, r.body, &qr); err != nil {
			return fail(err)
		}
		t.logSize += qr.Summary.NumOps
	}
	if err := drainLogs(s, t.logSize, tsDrainWindow); err != nil {
		return fail(err)
	}
	return s, nil
}

func (t *traceServe) ops(from, to int) []request {
	var out []request
	for _, d := range t.days[from:to] {
		out = append(out, d...)
	}
	return out
}

// drainLogs waits up to window until the tenants' telemetry logs hold
// exactly want records in total. Ingestion is asynchronous (a flusher
// goroutine per tenant), so the logs lag the responses briefly.
func drainLogs(s *server, want int, window time.Duration) error {
	deadline := time.Now().Add(window)
	for {
		st, err := s.stats()
		if err != nil {
			return err
		}
		n := 0
		for _, ts := range st {
			n += ts.LogSize
		}
		switch {
		case n > want:
			return fmt.Errorf("telemetry logs hold %d records, responses account for %d", n, want)
		case n == want:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("telemetry logs stuck at %d of %d records", n, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkTraceResponse verifies one timed trace-serve response: priced by
// the version trained at set-up, and a physically consistent execution.
func checkTraceResponse(qr *queryResult, version int64) error {
	switch {
	case !qr.UsedLearned || qr.ModelVersion != version:
		return fmt.Errorf("priced with learned=%v version %d, want learned version %d",
			qr.UsedLearned, qr.ModelVersion, version)
	case !(qr.Latency > 0) || qr.Latency > qr.TotalProcessingTime:
		return fmt.Errorf("latency %g outside (0, total processing time %g]", qr.Latency, qr.TotalProcessingTime)
	case qr.Summary.NumStages < 1 || qr.Containers < qr.Summary.NumStages:
		return fmt.Errorf("%d containers for %d stages", qr.Containers, qr.Summary.NumStages)
	}
	return nil
}

func (t *traceServe) check(s *server, ph *phase) error {
	var lat, proc float64
	ops := 0
	for i, r := range ph.reqs {
		if ph.status[i] != http.StatusOK {
			continue
		}
		var qr queryResult
		if err := json.Unmarshal(ph.bodies[i], &qr); err != nil {
			return fmt.Errorf("op %d: decode response: %w", i, err)
		}
		if err := checkTraceResponse(&qr, t.versions[r.tenant]); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, r.tenant, err)
		}
		lat += qr.Latency
		proc += qr.TotalProcessingTime
		ops += qr.Summary.NumOps
	}
	before := t.logSize
	t.logSize += ops
	if err := drainLogs(s, t.logSize, tsDrainWindow); err != nil {
		return err
	}
	if !ph.traced {
		n := float64(ph.ok())
		t.simLat, t.simProc = lat/n, proc/n
		t.ingested = float64(t.logSize-before) / float64(len(ph.reqs))
		t.appendsAt = ph.before.prom
	}
	return nil
}

func (t *traceServe) layers(s *server, a, b *phase, m map[string]float64, tr *tracer) error {
	now, err := s.scrape()
	if err != nil {
		return err
	}
	const h = "cleo_persist_journal_append_seconds"
	appends := now.sum(h+"_count") - t.appendsAt.sum(h+"_count")
	m["persist.journal_append_us"] = ratio(now.sum(h+"_sum")-t.appendsAt.sum(h+"_sum"), appends) * 1e6
	m["serve.ingested_records_per_op"] = t.ingested
	m["exec.sim_latency_s_per_query"] = t.simLat
	m["exec.sim_processing_s_per_query"] = t.simProc
	return nil
}
