package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cleo/internal/engine"
	"cleo/internal/stats"
)

// quiet silences persistence logging in tests.
func quiet(string, ...any) {}

// demoTableStats matches newTestTenant's registration — recovered tenants
// rebuild their catalog from request-supplied tables, so tests re-register
// explicitly after a restart.
func demoTableStats() stats.TableStats {
	return stats.TableStats{Rows: 2e7, RowLength: 120}
}

// durableConfig is the standard test config for a state directory.
func durableConfig(dir string) Config {
	return Config{StateDir: dir, Logf: quiet}
}

// TestCrashRecoveryRoundTrip is the acceptance pin: a service trained to
// two model versions, stopped, and restarted against the same state
// directory serves its first query with the latest learned model — same
// version id, no retrain — and replays the pending (not-yet-trained)
// journal records into the feedback loop.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Life 1: train two versions, then leave untrained telemetry behind.
	svc1 := NewService(durableConfig(dir))
	tn1 := newTestTenant(svc1, "ads")
	seedTelemetry(t, tn1, 30)
	if _, err := tn1.Retrain(); err != nil {
		t.Fatal(err)
	}
	seedTelemetry(t, tn1, 60)
	info2, err := tn1.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if info2.ID != 2 {
		t.Fatalf("second publish id = %d", info2.ID)
	}
	// Pending traffic after the last train: journaled but not trained.
	q := demoPlan()
	pending := 0
	for seed := int64(100); seed < 110; seed++ {
		res, err := tn1.Run(q, engine.RunOptions{Seed: seed, Param: 2})
		if err != nil {
			t.Fatal(err)
		}
		pending += len(res.Records)
	}
	trained := info2.TrainRecords
	svc1.Close() // waits for flusher + async snapshot writes

	// Life 2: recovery happens inside NewService, before any request.
	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("recovered tenant not found without an explicit create")
	}
	st := tn2.Stats()
	if st.ModelVersion != 2 || st.NumModels == 0 {
		t.Fatalf("recovered stats: %+v", st)
	}
	if st.Retrains != 0 {
		t.Fatalf("recovery must not retrain (retrains = %d)", st.Retrains)
	}
	if st.Persist == nil || st.Persist.RecoveredVersion != 2 || int(st.Persist.RecoveredRecords) != pending {
		t.Fatalf("persist stats: %+v (want recovered version 2, %d records)", st.Persist, pending)
	}
	// Metadata history survived with stable ids.
	versions := tn2.Registry().Versions()
	if len(versions) != 2 || versions[0].ID != 1 || versions[1].ID != 2 {
		t.Fatalf("recovered history: %+v", versions)
	}
	if versions[1].TrainRecords != trained {
		t.Fatalf("recovered v2 metadata: %+v, want %d train records", versions[1], trained)
	}
	// Only the pending records were replayed (trained ones live in the
	// snapshot, not the journal).
	if got := tn2.System().LogSize(); got != pending {
		t.Fatalf("replayed log size = %d, want %d", got, pending)
	}

	// The FIRST query serves with the learned model at the restored id.
	tn2.System().RegisterTable("clicks_2026_06_12", demoTableStats())
	res, version, err := tn2.RunWithVersion(q, engine.RunOptions{Seed: 999, Param: 2, UseLearnedModels: true})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || res.Plan == nil {
		t.Fatalf("first recovered query used version %d, want 2", version)
	}

	// Replayed journal records feed the retraining pipeline: an explicit
	// retrain trains on exactly them and resumes the id sequence at 3.
	info3, err := tn2.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if info3.ID != 3 {
		t.Fatalf("post-recovery publish id = %d, want 3", info3.ID)
	}
	if info3.TrainRecords < pending {
		t.Fatalf("post-recovery retrain saw %d records, want >= %d replayed", info3.TrainRecords, pending)
	}
}

// TestRecoveryTruncatedJournalTail pins replay-after-partial-write: a
// journal cut mid-frame (the crash window) recovers the complete prefix
// and the tenant keeps serving — a warning, never a panic.
func TestRecoveryTruncatedJournalTail(t *testing.T) {
	dir := t.TempDir()
	svc1 := NewService(durableConfig(dir))
	tn1 := newTestTenant(svc1, "ads")
	// Flush after every run so each lands in its own journal frame (the
	// flusher otherwise merges queued batches into one frame — and one
	// frame would make any tear lose everything).
	q := demoPlan()
	for seed := int64(1); seed <= 20; seed++ {
		if _, err := tn1.Run(q, engine.RunOptions{Seed: seed, Param: 2}); err != nil {
			t.Fatal(err)
		}
		tn1.flush()
	}
	logged := tn1.System().LogSize()
	svc1.Close()

	// Tear the journal tail mid-frame.
	wal := filepath.Join(dir, "ads", "journal.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant not recovered after torn journal")
	}
	st := tn2.Stats()
	if st.Persist == nil || st.Persist.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st.Persist)
	}
	got := tn2.System().LogSize()
	if got == 0 || got >= logged {
		t.Fatalf("replayed %d records after torn tail, want a non-empty strict prefix of %d", got, logged)
	}
	// Still fully serviceable, including new durable traffic.
	tn2.System().RegisterTable("clicks_2026_06_12", demoTableStats())
	if _, err := tn2.Run(demoPlan(), engine.RunOptions{Seed: 7}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCorruptSnapshotColdStart pins the corruption contract for
// snapshots: garbage manifest + model files degrade that tenant to a cold
// start (journal still replayed), never a crash.
func TestRecoveryCorruptSnapshotColdStart(t *testing.T) {
	dir := t.TempDir()
	svc1 := NewService(durableConfig(dir))
	tn1 := newTestTenant(svc1, "ads")
	seedTelemetry(t, tn1, 30)
	if _, err := tn1.Retrain(); err != nil {
		t.Fatal(err)
	}
	// Untrained tail so the journal is non-empty after the snapshot cut.
	seedTelemetry(t, tn1, 40)
	svc1.Close()

	// Corrupt every snapshot file.
	paths, err := filepath.Glob(filepath.Join(dir, "ads", "v*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshot files to corrupt (%v, %v)", paths, err)
	}
	for _, p := range paths {
		if err := os.WriteFile(p, []byte("{corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant not recovered after snapshot corruption")
	}
	st := tn2.Stats()
	if st.ModelVersion != 0 {
		t.Fatalf("corrupt snapshot still produced version %d", st.ModelVersion)
	}
	if tn2.System().LogSize() == 0 {
		t.Fatal("journal replay lost along with the snapshot")
	}
	// Cold but alive: default-model traffic and a fresh retrain work.
	tn2.System().RegisterTable("clicks_2026_06_12", demoTableStats())
	if _, err := tn2.Run(demoPlan(), engine.RunOptions{Seed: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPublishSnapshotRace drives concurrent retrains, explicit
// snapshots, and query traffic against one durable tenant (run with
// -race). The acceptance bar is zero serving errors and a consistent
// snapshot directory afterwards.
func TestConcurrentPublishSnapshotRace(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(durableConfig(dir))
	tn := newTestTenant(svc, "ads")
	seedTelemetry(t, tn, 30)
	if _, err := tn.Retrain(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // query traffic
		defer wg.Done()
		q := demoPlan()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tn.Run(q, engine.RunOptions{Seed: int64(i), Param: float64(i%3) + 1, UseLearnedModels: true}); err != nil {
				errc <- fmt.Errorf("run %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // publishes (each schedules an async snapshot)
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(2 * time.Millisecond)
			if _, err := tn.Retrain(); err != nil && !errors.Is(err, ErrRetrainInProgress) {
				errc <- fmt.Errorf("retrain %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // explicit admin snapshots racing the async ones
		defer wg.Done()
		for i := 0; i < 8; i++ {
			time.Sleep(time.Millisecond)
			if _, err := tn.Snapshot(); err != nil && !errors.Is(err, ErrNoModelVersion) {
				errc <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
		}
	}()
	time.Sleep(25 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	final := tn.Registry().Current().Info
	svc.Close()

	// The directory must recover to the newest published-and-snapshotted
	// version with its id intact.
	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant lost after concurrent publish/snapshot")
	}
	st := tn2.Stats()
	if st.ModelVersion != final.ID {
		t.Fatalf("recovered version %d, want %d", st.ModelVersion, final.ID)
	}
}

// TestSnapshotWithoutStateDir pins the persistence-disabled error.
func TestSnapshotWithoutStateDir(t *testing.T) {
	svc := NewService(Config{})
	defer svc.Close()
	tn := newTestTenant(svc, "ads")
	if _, err := tn.Snapshot(); !errors.Is(err, ErrPersistenceDisabled) {
		t.Fatalf("err = %v, want ErrPersistenceDisabled", err)
	}
}

// TestRecoveredTenantRetainsSeed pins that a recovered tenant rebuilds
// the same simulated cluster: the default SeedOf derivation is pure in
// the tenant name, so plans and statistics stay consistent across
// restarts.
func TestRecoveredTenantRetainsSeed(t *testing.T) {
	dir := t.TempDir()
	svc1 := NewService(durableConfig(dir))
	tn1 := newTestTenant(svc1, "ads")
	p1, c1, err := tn1.Optimize(demoPlan(), engine.RunOptions{Seed: 5, SkipLogging: true})
	if err != nil {
		t.Fatal(err)
	}
	// A run creates journal state so the tenant exists on disk.
	if _, err := tn1.Run(demoPlan(), engine.RunOptions{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	tn2.System().RegisterTable("clicks_2026_06_12", demoTableStats())
	p2, c2, err := tn2.Optimize(demoPlan(), engine.RunOptions{Seed: 5, SkipLogging: true})
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() || c1 != c2 {
		t.Fatalf("recovered tenant plans diverge:\n%s (%v)\n%s (%v)", p1, c1, p2, c2)
	}
}

// waitTableWriter returns once the tenant's table writer has drained
// every pending delta and exited.
func waitTableWriter(t *testing.T, tn *Tenant) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tn.tablesMu.Lock()
		busy := tn.tablesWriting
		tn.tablesMu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("table writer still running after 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestTableStatsWriteVolumeLinear pins the cost of the recurring-job
// pattern, one new dated input per request: the bytes written grow
// linearly with the tables registered (the delta log after 2N
// registrations is at most 2.2x the log after N), and tables.json is not
// rewritten on the way. A full-catalog rewrite per request would write
// O(N^2) bytes.
func TestTableStatsWriteVolumeLinear(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	svc := NewService(durableConfig(dir))
	tn := svc.Tenant("ads")
	register := func(from, to int) {
		for i := from; i < to; i++ {
			tn.RegisterTables(map[string]stats.TableStats{
				fmt.Sprintf("clicks_%05d", i): {Rows: 2e7, RowLength: 120},
			})
			// One frame per registration, so the sizes below do not
			// depend on how many registrations shared a frame.
			waitTableWriter(t, tn)
		}
	}
	tdir := filepath.Join(dir, "ads")
	logSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(tdir, "tables.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	register(0, n)
	atN := logSize()
	register(n, 2*n)
	at2N := logSize()
	if at2N <= atN || float64(at2N) > 2.2*float64(atN) {
		t.Fatalf("table log grew from %d bytes after %d registrations to %d after %d; want linear growth",
			atN, n, at2N, 2*n)
	}
	if _, err := os.Stat(filepath.Join(tdir, "tables.json")); !os.IsNotExist(err) {
		t.Fatalf("tables.json was written during new-table registration (stat err %v)", err)
	}
	if st := tn.Stats(); st.Persist.TableSaves != 2*n || st.Persist.TableErrors != 0 {
		t.Fatalf("persist stats: %+v", st.Persist)
	}
	want := tn.System().Catalog().Tables()
	svc.Close()

	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	if got := tn2.System().Catalog().Tables(); len(got) != 2*n || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d tables, want the %d registered", len(got), len(want))
	}
}

// TestTableStatsCompactionMatchesCatalog re-registers changed statistics
// from several goroutines at once, then until the compaction rule fires:
// the durable catalog (tables.json overlaid with the log) must equal the
// live one, whatever frames the group commit formed.
func TestTableStatsCompactionMatchesCatalog(t *testing.T) {
	dir := t.TempDir()
	svc := NewService(durableConfig(dir))
	defer svc.Close()
	tn := svc.Tenant("ads")
	const tables, writers, rounds = 6, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				delta := map[string]stats.TableStats{}
				for i := 0; i < tables; i++ {
					if (i+r+w)%2 == 0 {
						delta[fmt.Sprintf("t%d", i)] = stats.TableStats{Rows: float64(1 + w*rounds + r), RowLength: 64}
					}
				}
				tn.RegisterTables(delta)
			}
		}(w)
	}
	wg.Wait()
	// Then whole-catalog changes one frame at a time: 3 frames of 6
	// entries exceed twice the 6 tables, so the rule fires however the
	// concurrent registrations above were grouped.
	for r := 0; r < 3; r++ {
		delta := map[string]stats.TableStats{}
		for i := 0; i < tables; i++ {
			delta[fmt.Sprintf("t%d", i)] = stats.TableStats{Rows: float64(1 + writers*rounds + r), RowLength: 64}
		}
		tn.RegisterTables(delta)
		waitTableWriter(t, tn)
	}
	if _, err := os.Stat(filepath.Join(dir, "ads", "tables.json")); err != nil {
		t.Fatalf("the compaction rule never fired: %v", err)
	}
	got, err := tn.state.LoadTables()
	if err != nil {
		t.Fatal(err)
	}
	if want := tn.System().Catalog().Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("durable catalog %+v, live catalog %+v", got, want)
	}
}
