// Package stats implements the data-statistics substrate: table statistics,
// a selectivity-based cardinality estimator whose errors compound up the
// plan (the behaviour Section 2.4 of the paper attributes to SCOPE's
// estimator), a perfect-cardinality feedback mode, and a CardLearner
// baseline (Wu et al., [47]) that corrects cardinalities with per-template
// Poisson regression.
//
// True selectivities and estimator biases are deterministic functions of
// predicate identifiers, so recurring job instances see stable data
// distributions (Section 3.1) while different predicates behave
// differently. Per-instance drift is driven by the job seed.
package stats

import (
	"hash/fnv"
	"math"
	"sync"
)

// TableStats describes one stored input instance.
type TableStats struct {
	// Rows is the row count of this instance of the input.
	Rows float64
	// RowLength is the average row length in bytes.
	RowLength float64
	// PartitionedOn, when non-empty, marks the input as stored
	// hash-partitioned on that column with the given partition count —
	// scans of such inputs deliver that partitioning for free (the
	// mechanism behind the paper's TPC-H Q8/Q9 shuffle eliminations).
	PartitionedOn string
	// Partitions is the stored partition count when PartitionedOn is set.
	Partitions int
}

// Catalog resolves table statistics and operator selectivities. The zero
// value is unusable; construct with NewCatalog. Methods are safe for
// concurrent use: the serving layer registers tables on live tenants
// while optimizations read them.
type Catalog struct {
	mu     sync.RWMutex // guards tables and the override maps
	tables map[string]TableStats
	// epoch counts statistics mutations (table registrations and
	// selectivity overrides). Caches keyed on optimizer inputs — the
	// recurring-job template cache above all — fold it into their keys, so
	// a stats update automatically misses instead of serving state derived
	// from the old catalog.
	epoch uint64
	// seed perturbs the deterministic selectivity functions so different
	// simulated clusters have different data distributions.
	seed uint64
	// Explicit overrides (true, estimated), keyed by predicate id; used by
	// workloads with known semantics such as TPC-H.
	filterOv map[string][2]float64
	joinOv   map[string][2]float64
	aggOv    map[string][2]float64
}

// NewCatalog returns an empty catalog for a cluster with the given seed.
func NewCatalog(seed uint64) *Catalog {
	return &Catalog{
		tables:   map[string]TableStats{},
		seed:     seed,
		filterOv: map[string][2]float64{},
		joinOv:   map[string][2]float64{},
		aggOv:    map[string][2]float64{},
	}
}

// OverrideFilter pins a predicate's true and estimated selectivity.
func (c *Catalog) OverrideFilter(pred string, trueSel, estSel float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := [2]float64{trueSel, estSel}
	if old, ok := c.filterOv[pred]; !ok || old != v {
		c.epoch++
	}
	c.filterOv[pred] = v
}

// OverrideJoinFanout pins a join predicate's true and estimated fanout.
func (c *Catalog) OverrideJoinFanout(pred string, trueFan, estFan float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := [2]float64{trueFan, estFan}
	if old, ok := c.joinOv[pred]; !ok || old != v {
		c.epoch++
	}
	c.joinOv[pred] = v
}

// OverrideAggReduction pins a group-by key's true and estimated reduction.
func (c *Catalog) OverrideAggReduction(key string, trueRed, estRed float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := [2]float64{trueRed, estRed}
	if old, ok := c.aggOv[key]; !ok || old != v {
		c.epoch++
	}
	c.aggOv[key] = v
}

// PutTable registers (or updates) the statistics of a stored input and
// reports whether that changed the catalog (and so moved the epoch).
func (c *Catalog) PutTable(name string, ts TableStats) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.tables[name]; ok && old == ts {
		return false
	}
	c.epoch++
	c.tables[name] = ts
	return true
}

// Epoch reports the current statistics epoch: it advances on every
// statistics *change* — a new table or override, or an existing one
// re-registered with different values — and never backwards. Idempotent
// re-registration (the serving pattern: every recurring request re-sends
// its `tables` stats) leaves it unchanged, so stats-epoch-keyed caches
// keep hitting across identical instances.
func (c *Catalog) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Table returns the statistics for the named input and whether it exists.
func (c *Catalog) Table(name string) (TableStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts, ok := c.tables[name]
	return ts, ok
}

// Tables snapshots every registered table's statistics — the replication
// layer ships the whole catalog at once. The returned map is the caller's
// to keep.
func (c *Catalog) Tables() map[string]TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]TableStats, len(c.tables))
	for name, ts := range c.tables {
		out[name] = ts
	}
	return out
}

// override reads one override map entry under the read lock. Callers must
// not hold the lock (reads are not nested, keeping RLock non-reentrant).
func (c *Catalog) override(m map[string][2]float64, key string) ([2]float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ov, ok := m[key]
	return ov, ok
}

// hashUnit maps a string (plus the catalog seed and a salt) to a uniform
// float in [0, 1).
func (c *Catalog) hashUnit(salt, s string) float64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(s))
	var b [8]byte
	v := h.Sum64() ^ c.seed*0x9e3779b97f4a7c15
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h2 := fnv.New64a()
	h2.Write(b[:])
	return float64(h2.Sum64()%1_000_000_007) / 1_000_000_007.0
}

// logUniform maps a unit sample to [lo, hi] log-uniformly.
func logUniform(u, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, u)
}

// TrueFilterSelectivity returns the actual selectivity of predicate pred,
// stable across job instances, in [0.02, 0.9].
func (c *Catalog) TrueFilterSelectivity(pred string) float64 {
	if ov, ok := c.override(c.filterOv, pred); ok {
		return ov[0]
	}
	return logUniform(c.hashUnit("fsel", pred), 0.02, 0.9)
}

// EstFilterSelectivity returns the optimizer's (biased) selectivity
// estimate: the true value distorted log-uniformly by up to ~6x either way.
func (c *Catalog) EstFilterSelectivity(pred string) float64 {
	if ov, ok := c.override(c.filterOv, pred); ok {
		return ov[1]
	}
	bias := logUniform(c.hashUnit("fbias", pred), 1.0/6, 6)
	s := c.TrueFilterSelectivity(pred) * bias
	return clamp(s, 1e-4, 1)
}

// TrueJoinFanout returns the actual join fanout f: the join of inputs of
// cardinality L and R produces max(L,R)*f rows, with f in [0.05, 2.5].
func (c *Catalog) TrueJoinFanout(pred string) float64 {
	if ov, ok := c.override(c.joinOv, pred); ok {
		return ov[0]
	}
	return logUniform(c.hashUnit("jfan", pred), 0.05, 2.5)
}

// EstJoinFanout returns the estimated fanout; joins are typically
// under-estimated (independence assumption), so the bias is skewed low and
// wide: up to ~20x under, ~5x over.
func (c *Catalog) EstJoinFanout(pred string) float64 {
	if ov, ok := c.override(c.joinOv, pred); ok {
		return ov[1]
	}
	bias := logUniform(c.hashUnit("jbias", pred), 1.0/20, 5)
	return c.TrueJoinFanout(pred) * bias
}

// TrueAggReduction returns the actual group-count reduction r: the
// aggregation of N rows produces N*r groups, r in [0.0005, 0.3].
func (c *Catalog) TrueAggReduction(key string) float64 {
	if ov, ok := c.override(c.aggOv, key); ok {
		return ov[0]
	}
	return logUniform(c.hashUnit("ared", key), 5e-4, 0.3)
}

// EstAggReduction returns the estimated reduction, biased up to ~4x.
func (c *Catalog) EstAggReduction(key string) float64 {
	if ov, ok := c.override(c.aggOv, key); ok {
		return ov[1]
	}
	bias := logUniform(c.hashUnit("abias", key), 0.25, 4)
	return clamp(c.TrueAggReduction(key)*bias, 1e-6, 1)
}

// TrueProcessFanout returns the actual output/input ratio of a UDF in
// [0.1, 2]. UDFs are black boxes, so the estimate is crude.
func (c *Catalog) TrueProcessFanout(udf string) float64 {
	return logUniform(c.hashUnit("pfan", udf), 0.1, 2)
}

// EstProcessFanout is the optimizer's guess for a UDF's fanout: always 1
// (SCOPE's default for unknown user code).
func (c *Catalog) EstProcessFanout(string) float64 { return 1 }

// Drift returns a small per-instance multiplicative drift of the true
// selectivity, deterministic in (id, jobSeed): lognormal with sigma≈0.08.
func (c *Catalog) Drift(id string, jobSeed int64) float64 {
	u := c.hashUnit("drift", id+"/"+itoa(jobSeed))
	// Box-Muller-free approximation: map uniform to an approximately
	// normal quantile via inverse-CDF-ish logit, then exponentiate.
	z := logit(u) * 0.55 // stddev of logistic(0,0.55) ≈ 1
	return math.Exp(0.08 * z)
}

// ProjectWidthFactor returns the row-length shrink factor of a projection.
func (c *Catalog) ProjectWidthFactor(keysFingerprint string) float64 {
	return 0.3 + 0.6*c.hashUnit("pw", keysFingerprint)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func logit(u float64) float64 {
	u = clamp(u, 1e-9, 1-1e-9)
	return math.Log(u / (1 - u))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
