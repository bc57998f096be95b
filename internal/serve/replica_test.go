package serve

import (
	"bytes"
	"testing"

	"cleo/internal/engine"
	"cleo/internal/stats"
)

// TestDurableTablesSurviveRestart pins satellite behaviour: table
// statistics registered through the serving layer are logged with the
// tenant as deltas, so the first post-restart request plans against the
// full catalog without the client re-sending stats.
func TestDurableTablesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := NewService(durableConfig(dir))
	tn1 := svc1.Tenant("ads")
	tn1.RegisterTables(map[string]stats.TableStats{
		"clicks_2026_06_12": {Rows: 2e7, RowLength: 120},
		"users":             {Rows: 5e5, RowLength: 64},
	})
	// Re-registering the same stats changes nothing, so it logs no delta.
	tn1.RegisterTables(map[string]stats.TableStats{
		"clicks_2026_06_12": {Rows: 2e7, RowLength: 120},
	})
	svc1.Close() // drains the table writer before the log closes
	if st := tn1.Stats(); st.Persist == nil || st.Persist.TableSaves != 1 {
		t.Fatalf("persist stats after one changing registration: %+v", st.Persist)
	}

	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	tabs := tn2.System().Catalog().Tables()
	if tabs["clicks_2026_06_12"].Rows != 2e7 || tabs["users"].Rows != 5e5 {
		t.Fatalf("recovered catalog: %+v", tabs)
	}
	// The acceptance gesture: a stats-free query on the recovered tenant.
	if _, err := tn2.Run(demoPlan(), engine.RunOptions{Seed: 1, Param: 2}); err != nil {
		t.Fatalf("stats-free query after restart: %v", err)
	}
}

// TestInstallReplicaWarmAndDurable drives the follower half of snapshot
// replication without the HTTP layer: an installed replica is live under
// its origin version id with zero local retrains, stale pushes are
// refused, the artifacts reach the follower's own state directory (a
// restart recovers them), and a later local retrain continues the version
// sequence above the replicated id.
func TestInstallReplicaWarmAndDurable(t *testing.T) {
	// "Owner": train two versions in-memory and export the latest.
	owner := NewService(Config{})
	ownerTn := newTestTenant(owner, "ads")
	seedTelemetry(t, ownerTn, 30)
	if _, err := ownerTn.Retrain(); err != nil {
		t.Fatal(err)
	}
	seedTelemetry(t, ownerTn, 60)
	info, err := ownerTn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	cur := ownerTn.Registry().Current()
	var model bytes.Buffer
	if err := cur.Predictor.Save(&model); err != nil {
		t.Fatal(err)
	}
	tables := ownerTn.System().Catalog().Tables()
	owner.Close()

	dir := t.TempDir()
	follower := NewService(durableConfig(dir))
	ftn := follower.Tenant("ads")
	if !ftn.InstallReplica(info, cur.Predictor, model.Bytes(), tables) {
		t.Fatal("install refused")
	}
	// Stale or duplicate pushes (out-of-order replication) are dropped.
	if ftn.InstallReplica(info, cur.Predictor, model.Bytes(), tables) {
		t.Fatal("duplicate version installed twice")
	}
	stale := info
	stale.ID--
	if ftn.InstallReplica(stale, cur.Predictor, model.Bytes(), tables) {
		t.Fatal("older version replaced a newer one")
	}

	st := ftn.Stats()
	if st.ModelVersion != info.ID || st.Retrains != 0 || st.ReplicaInstalls != 1 {
		t.Fatalf("follower stats: %+v", st)
	}
	if !ftn.HasModels() {
		t.Fatal("replica not live")
	}
	if _, err := ftn.Run(demoPlan(), engine.RunOptions{Seed: 5, Param: 2}); err != nil {
		t.Fatalf("query on replica: %v", err)
	}
	follower.Close() // drains the async snapshot import

	// A follower restart recovers the replicated version from local disk —
	// the failover survives the failed-over-to node restarting too.
	svc2 := NewService(durableConfig(dir))
	defer svc2.Close()
	tn2, ok := svc2.Lookup("ads")
	if !ok {
		t.Fatal("follower tenant not recovered")
	}
	st2 := tn2.Stats()
	if st2.ModelVersion != info.ID || st2.Retrains != 0 {
		t.Fatalf("restarted follower stats: %+v", st2)
	}
	if tn2.System().Catalog().Tables()["clicks_2026_06_12"].Rows != 2e7 {
		t.Fatal("replicated table statistics not recovered")
	}

	// Local training resumes above the replicated id, never below it.
	seedTelemetry(t, tn2, 90)
	next, err := tn2.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= info.ID {
		t.Fatalf("post-replica retrain id %d, want > %d", next.ID, info.ID)
	}
}
