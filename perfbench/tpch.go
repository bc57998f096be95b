package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"

	"cleo/internal/cascades"
	"cleo/internal/engine"
	"cleo/internal/exec"
	"cleo/internal/serve"
	"cleo/internal/workload/tpch"
)

// tpchQueries is the number of TPC-H queries every round sends.
const tpchQueries = 22

// tpch-execute sends run-mode TPC-H Q1–22 on the streaming backend at
// the default table cap, in whole passes, on one tenant at executor width
// 1 with the default cost model. A round is one pass. A run times more
// passes than --seconds asks for (about 25 s at --seconds 10): with 10
// passes the median latency of a run followed the host's bursts of speed
// and spread past its bound.
const (
	teTenant = "tpch-exec"
	teSF     = 1
	teWidth  = 1
	tePer10s = 24 // rounds (passes) per 10 s of --seconds
)

type tpchExecute struct {
	passes [][]request
	ref    [tpchQueries]exec.Result // reference answers of the plans as written
}

func (t *tpchExecute) name() string { return "tpch-execute" }

func (t *tpchExecute) rounds(seconds int) int { return roundsFor(seconds, tePer10s) }

func (t *tpchExecute) generate(seed int64, rounds int) error {
	rng := rand.New(rand.NewSource(seed))
	queries := tpch.Queries()
	// One warm-up pass ahead of the timed ones.
	for pass := 0; pass <= rounds; pass++ {
		var reqs []request
		for q := 1; q <= tpchQueries; q++ {
			r, err := queryRequest(serve.QueryRequest{
				Tenant: teTenant, Mode: "run", Seed: rng.Int63(), Param: 1 + rng.Float64()*23,
				UseLearned: boolPtr(false), Plan: queries[q](),
			})
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		t.passes = append(t.passes, reqs)
	}
	for q := 1; q <= tpchQueries; q++ {
		res, err := referenceAnswer(q)
		if err != nil {
			return err
		}
		t.ref[q-1] = res
	}
	return nil
}

// referenceAnswer is TPC-H query q's expected answer: the reference
// evaluator on the query as written (optimized with no transformation
// rules), over the tenant's tables.
func referenceAnswer(q int) (exec.Result, error) {
	sys := engine.NewSystem(engine.SystemConfig{Seed: tenantSeed(teTenant), Parallelism: 1,
		Rules: cascades.EmptyRules(), TemplateCacheSize: -1})
	sys.RegisterTPCH(teSF)
	p, _, err := sys.Optimize(tpch.Queries()[q](), engine.RunOptions{SkipLogging: true})
	if err != nil {
		return exec.Result{}, fmt.Errorf("Q%d: %w", q, err)
	}
	res, err := exec.NewReference(exec.StreamConfig{}).Run(p, rand.New(rand.NewSource(1)))
	if err != nil {
		return exec.Result{}, fmt.Errorf("Q%d reference: %w", q, err)
	}
	return res, nil
}

func (t *tpchExecute) setup() (*server, error) {
	s := newServer(serve.Config{StreamingExec: true, Parallelism: 1, ExecWorkers: teWidth})
	s.svc.Tenant(teTenant).System().RegisterTPCH(teSF)
	for _, r := range t.passes[0] {
		if err := s.post(r.path, r.body, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (t *tpchExecute) ops(from, to int) []request {
	var out []request
	for _, p := range t.passes[from+1 : to+1] {
		out = append(out, p...)
	}
	return out
}

// errEmptyAnswer marks an answer that matches the reference but has no
// rows. The generated TPC-H tables draw every key column from one wide
// domain whatever the table's size, so joins through the 25-row nation
// and 5-row region tables find no match: Q2, Q5, Q8 and Q9 return empty
// answers on every run, whatever the seed. Those operations count as
// failed rather than incorrect.
var errEmptyAnswer = errors.New("empty answer")

// checkAnswer compares a streamed answer with the reference one.
func checkAnswer(qr *queryResult, ref exec.Result) error {
	switch {
	case qr.OutputRows != ref.OutputRows || qr.OutputChecksum != ref.OutputChecksum:
		return fmt.Errorf("answer %d rows checksum %x, reference %d rows checksum %x",
			qr.OutputRows, qr.OutputChecksum, ref.OutputRows, ref.OutputChecksum)
	case qr.OutputRows == 0:
		return errEmptyAnswer
	}
	return nil
}

func (t *tpchExecute) check(s *server, ph *phase) error {
	for i := range ph.reqs {
		if ph.status[i] != http.StatusOK {
			continue
		}
		var qr queryResult
		if err := json.Unmarshal(ph.bodies[i], &qr); err != nil {
			return fmt.Errorf("op %d: decode response: %w", i, err)
		}
		q := i%tpchQueries + 1
		err := checkAnswer(&qr, t.ref[q-1])
		if errors.Is(err, errEmptyAnswer) {
			ph.failed[i] = true
			continue
		}
		if err != nil {
			return fmt.Errorf("op %d (Q%d): %w", i, q, err)
		}
	}
	return nil
}

func (t *tpchExecute) layers(*server, *phase, *phase, map[string]float64, *tracer) error {
	return nil
}
