package persist

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cleo/internal/stats"
	"cleo/internal/telemetry"
)

// fuzzJournalBytes renders a valid journal image holding the given record
// batches, through the same Journal code the production flusher uses.
func fuzzJournalBytes(f *testing.F, batches ...[]telemetry.Record) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), journalName)
	j, _, err := OpenJournal(path, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range batches {
		if err := j.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalOpen feeds arbitrary journal images — torn tails, flipped
// bits, hostile length prefixes — to OpenJournal. The recovery contract
// under fuzz: never panic, never fail on corruption (only real I/O errors
// may error), and never mis-truncate — whatever survives the first open
// must be a clean journal that reopens bit-stably with the same records,
// and appends after recovery must land intact.
func FuzzJournalOpen(f *testing.F) {
	// Seeds from the journal test corpus: empty, single- and multi-frame
	// images, a torn tail, a corrupt checksum and an absurd length prefix.
	valid := fuzzJournalBytes(f, mkRecords(0, 3), mkRecords(3, 2))
	f.Add([]byte{})
	f.Add(fuzzJournalBytes(f, mkRecords(0, 1)))
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn frame payload
	f.Add(valid[:frameHeaderBytes-2])
	torn := append([]byte(nil), valid...)
	torn[len(torn)-1] ^= 0xff // checksum mismatch in the last frame
	f.Add(torn)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31-1) // implausible length
	f.Add(huge)
	f.Add([]byte("not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := OpenJournal(path, false)
		if err != nil {
			t.Fatalf("OpenJournal failed on corrupt-but-readable input: %v", err)
		}
		if rec.DroppedBytes < 0 || rec.DroppedBytes > int64(len(data)) {
			t.Fatalf("recovery dropped %d bytes of a %d-byte image", rec.DroppedBytes, len(data))
		}
		if rec.DroppedBytes > 0 && rec.Reason == "" {
			t.Fatal("bytes dropped without a reason")
		}
		if j.Records() != int64(len(rec.Records)) {
			t.Fatalf("journal reports %d records, recovery decoded %d", j.Records(), len(rec.Records))
		}
		// The open truncated the file to the surviving prefix; appends must
		// extend it like any healthy journal.
		appended := mkRecords(1000, 2)
		if err := j.Append(appended); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()

		j2, rec2, err := OpenJournal(path, false)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer j2.Close()
		if rec2.DroppedBytes != 0 {
			t.Fatalf("recovered journal was not clean on reopen: dropped %d (%s)",
				rec2.DroppedBytes, rec2.Reason)
		}
		want := len(rec.Records) + len(appended)
		if len(rec2.Records) != want {
			t.Fatalf("reopen decoded %d records, want %d survivors+appended", len(rec2.Records), want)
		}
		// The surviving prefix must be byte-stable (no silent rewriting of
		// frames that were already good), and the appended batch intact.
		for i, r := range rec.Records {
			if r != rec2.Records[i] {
				t.Fatalf("surviving record %d changed across reopen: %+v vs %+v", i, r, rec2.Records[i])
			}
		}
		for i, r := range appended {
			if rec2.Records[len(rec.Records)+i] != r {
				t.Fatalf("appended record %d corrupted: %+v vs %+v", i, rec2.Records[len(rec.Records)+i], r)
			}
		}
	})
}

// fuzzTablesLogBytes renders a valid tables.wal image holding the given
// deltas, through the same AppendTables path the serving layer uses.
func fuzzTablesLogBytes(f *testing.F, deltas ...map[string]stats.TableStats) []byte {
	f.Helper()
	dir := f.TempDir()
	ts, err := openTestTenant(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range deltas {
		if err := ts.AppendTables(d); err != nil {
			f.Fatal(err)
		}
	}
	ts.Close()
	data, err := os.ReadFile(filepath.Join(dir, "ads", tablesLogName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// validTablesPrefix decodes data frame by frame, as the format defines
// it, up to the first incomplete or invalid frame, and returns the
// catalog those frames describe (never nil).
func validTablesPrefix(data []byte) map[string]stats.TableStats {
	out := map[string]stats.TableStats{}
	for len(data) >= frameHeaderBytes {
		n := int64(binary.LittleEndian.Uint32(data[0:4]))
		if n > int64(maxFrameBytes) || n > int64(len(data)-frameHeaderBytes) {
			break
		}
		payload := data[frameHeaderBytes : frameHeaderBytes+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
			break
		}
		var d map[string]stats.TableStats
		if json.Unmarshal(payload, &d) != nil {
			break
		}
		maps.Copy(out, d)
		data = data[frameHeaderBytes+n:]
	}
	return out
}

// FuzzTablesLogOpen feeds arbitrary bytes as tables.wal to a tenant open.
// The contract: never panic, never fail on corruption, and load exactly
// the catalog of the log's valid frame prefix; the recovered state must
// take new deltas and reopen to the same catalog.
func FuzzTablesLogOpen(f *testing.F) {
	deltas := tableDeltas()
	valid := fuzzTablesLogBytes(f, deltas...)
	f.Add([]byte{})
	f.Add(fuzzTablesLogBytes(f, deltas[0]))
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn frame payload
	f.Add(valid[:frameHeaderBytes-2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // checksum mismatch in the last frame
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31-1) // implausible length
	f.Add(huge)
	f.Add([]byte("not a table log at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		tdir := filepath.Join(dir, "ads")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tdir, tablesLogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := openTestTenant(dir)
		if err != nil {
			t.Fatalf("open failed on corrupt-but-readable input: %v", err)
		}
		want := validTablesPrefix(data)
		load := func(ts *TenantState) map[string]stats.TableStats {
			t.Helper()
			got, err := ts.LoadTables()
			if err != nil {
				t.Fatalf("LoadTables: %v", err)
			}
			if got == nil {
				got = map[string]stats.TableStats{}
			}
			return got
		}
		if got := load(ts); !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %+v, valid frame prefix holds %+v", got, want)
		}
		delta := map[string]stats.TableStats{"appended": {Rows: 42, RowLength: 7}}
		if err := ts.AppendTables(delta); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		ts.Close()
		maps.Copy(want, delta)

		ts2, err := openTestTenant(dir)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer ts2.Close()
		if got := load(ts2); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen loaded %+v, want %+v", got, want)
		}
	})
}
