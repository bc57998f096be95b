package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"cleo/internal/costmodel"
	"cleo/internal/learned"
	"cleo/internal/serve"
	"cleo/internal/telemetry"
)

// retrain runs repeated /v1/retrain calls on a tenant whose telemetry log
// holds a fixed corpus of simulated records (several clusters × a few
// days, planned by the default cost model with partition jitter, as
// telemetry collection runs). The trained model is scored on the trace's
// last day, which the log never sees. A round is one retrain.
const (
	rtTenant   = "retrain"
	rtClusters = 4
	rtDays     = 4 // three training days, one held out
	rtPer10s   = 8 // rounds (retrains) per 10 s of --seconds
)

type retrainBench struct {
	corpus, heldOut []telemetry.Record
	last            int64 // version id before the next timed retrain
}

func (t *retrainBench) name() string { return "retrain" }

func (t *retrainBench) rounds(seconds int) int { return roundsFor(seconds, rtPer10s) }

func (t *retrainBench) generate(seed int64, _ int) error {
	// The installation is fixed, as in trace-serve; the seed draws the
	// jobs' execution noise and partition jitter, so the corpus keeps its
	// size and shape while its measured latencies change.
	runner := &telemetry.Runner{Trace: fixedTrace(rtClusters, rtDays, 0, seed), Cost: costmodel.Default{}, Jitter: true}
	col, err := runner.RunAll()
	if err != nil {
		return fmt.Errorf("simulate corpus: %w", err)
	}
	recs := col.Records
	// Chronological, so the service's train/meta split trains the family
	// models on earlier days and the combiner on later ones.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Day < recs[j].Day })
	for i, r := range recs {
		if r.Day == rtDays-1 {
			t.corpus, t.heldOut = recs[:i], recs[i:]
			return nil
		}
	}
	return fmt.Errorf("corpus has no held-out day")
}

func (t *retrainBench) setup() (*server, error) {
	s := newServer(serve.Config{})
	s.svc.Tenant(rtTenant).System().AppendTelemetry(t.corpus)
	var rr retrainResult
	r := retrainRequest(rtTenant)
	if err := s.post(r.path, r.body, &rr); err != nil { // warm-up
		s.close()
		return nil, err
	}
	t.last = rr.Version.ID
	return s, nil
}

func (t *retrainBench) ops(from, to int) []request {
	out := make([]request, to-from)
	for i := range out {
		out[i] = retrainRequest(rtTenant)
	}
	return out
}

// accuracy is the benchmark's own scoring of predictions against actual
// latencies: median relative error (percent) and Pearson correlation.
type accuracy struct {
	medianErrPct, pearson float64
}

func score(pred, act []float64) accuracy {
	if len(pred) == 0 {
		return accuracy{}
	}
	errs := make([]float64, len(pred))
	var mp, ma float64
	for i := range pred {
		errs[i] = math.Abs(pred[i]-act[i]) / act[i]
		mp += pred[i]
		ma += act[i]
	}
	sort.Float64s(errs)
	med := errs[len(errs)/2]
	if len(errs)%2 == 0 {
		med = (errs[len(errs)/2-1] + med) / 2
	}
	mp /= float64(len(pred))
	ma /= float64(len(act))
	var sxy, sxx, syy float64
	for i := range pred {
		dx, dy := pred[i]-mp, act[i]-ma
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	r := 0.0
	if sxx > 0 && syy > 0 {
		r = sxy / math.Sqrt(sxx*syy)
	}
	return accuracy{medianErrPct: 100 * med, pearson: r}
}

// checkPredictions requires a finite, non-negative prediction for every
// held-out record. A positive one cannot be required yet: the predictor
// clamps negative combined-model outputs to 0, which happens to a few
// held-out records on some seeds (seed 47: record 1372), so layers
// counts the zeros instead (learned.zero_predictions).
func checkPredictions(pred []float64) error {
	for i, p := range pred {
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("held-out record %d predicted %v", i, p)
		}
	}
	return nil
}

// predictHeldOut prices every held-out record with pr, and returns the
// combined model's predictions with the records' actual latencies.
func (t *retrainBench) predictHeldOut(pr *learned.Predictor) (all []learned.Prediction, pred, act []float64) {
	all = make([]learned.Prediction, len(t.heldOut))
	pred = make([]float64, len(t.heldOut))
	act = make([]float64, len(t.heldOut))
	for i := range t.heldOut {
		all[i] = pr.PredictRecord(&t.heldOut[i])
		pred[i], act[i] = all[i].Cost, t.heldOut[i].ActualLatency
	}
	return all, pred, act
}

// check requires every retrain to publish the next version, over the
// whole corpus, and the live model to price every held-out record.
func (t *retrainBench) check(s *server, ph *phase) error {
	for i := range ph.reqs {
		if ph.status[i] != http.StatusOK {
			continue
		}
		var rr retrainResult
		if err := json.Unmarshal(ph.bodies[i], &rr); err != nil {
			return fmt.Errorf("op %d: decode response: %w", i, err)
		}
		if rr.Version.ID != t.last+1 || rr.Version.TrainRecords != len(t.corpus) {
			return fmt.Errorf("op %d: published version %d on %d records, want version %d on %d",
				i, rr.Version.ID, rr.Version.TrainRecords, t.last+1, len(t.corpus))
		}
		t.last = rr.Version.ID
	}
	v := s.svc.Tenant(rtTenant).Registry().Current()
	if v == nil || v.Info.ID != t.last {
		return fmt.Errorf("live model is not the last published version %d", t.last)
	}
	_, pred, _ := t.predictHeldOut(v.Predictor)
	return checkPredictions(pred)
}

// layers scores the live model per family on the held-out day and times
// direct calls to the training entry points on the same split the
// service trains on.
func (t *retrainBench) layers(s *server, _, _ *phase, m map[string]float64, tr *tracer) error {
	v := s.svc.Tenant(rtTenant).Registry().Current()
	if v == nil {
		return fmt.Errorf("no live model")
	}
	all, pred, act := t.predictHeldOut(v.Predictor)
	var famPred, famAct [learned.NumFamilies][]float64
	for i, p := range all {
		for f := 0; f < learned.NumFamilies; f++ {
			if p.Covered[f] {
				famPred[f] = append(famPred[f], p.ByFamily[f])
				famAct[f] = append(famAct[f], act[i])
			}
		}
	}
	combined := score(pred, act)
	m["learned.median_error_pct.combined"] = combined.medianErrPct
	m["learned.correlation.combined"] = combined.pearson
	for _, p := range pred {
		if p == 0 {
			m["learned.zero_predictions"]++
		}
	}
	for f, name := range familyNames {
		m["learned.median_error_pct."+name] = score(famPred[f], famAct[f]).medianErrPct
		m["learned.coverage_pct."+name] = 100 * float64(len(famPred[f])) / float64(len(t.heldOut))
	}

	cfg := learned.DefaultTrainConfig()
	cut := int(float64(len(t.corpus)) * (1 - cfg.MetaFraction))
	base, meta := t.corpus[:cut], t.corpus[cut:]
	op := len(tr.spans)
	at := int64(0)
	timed := func(name string, fn func()) time.Duration {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.add(op, 0, name, at, int64(d), nil)
		at += int64(d)
		return d
	}
	for f, name := range familyNames {
		d := timed("learned.train_family."+name, func() { learned.TrainFamily(learned.Family(f), base, cfg.Family) })
		m["learned.train_ms."+name] = ms(d)
	}
	var err error
	d := timed("learned.train", func() { _, err = learned.Train(base, meta, cfg) })
	m["learned.train_ms.total"] = ms(d)
	return err
}
