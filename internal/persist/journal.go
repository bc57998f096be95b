package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cleo/internal/obs"
	"cleo/internal/telemetry"
)

// The telemetry journal is an append-only write-ahead log of ingested
// telemetry batches. Each batch is one length-prefixed frame:
//
//	[4B little-endian payload length][4B IEEE CRC-32 of payload][payload]
//
// where the payload is the JSON-lines encoding shared with the offline
// query logs (telemetry.WriteRecords / ReadRecords). Frames are only ever
// appended; after a successful model snapshot the trained prefix is cut
// from the head (MarkTrained), so the journal always holds exactly the
// records the latest snapshot has not learned from yet. A torn tail —
// the crash window cuts a frame mid-write — is detected by the length and
// checksum on open and truncated away: recovery keeps every complete
// frame and never fails on a partial one.

const frameHeaderBytes = 8

// maxFrameBytes guards the decoder against a corrupt length prefix
// (anything larger is treated as a torn tail, not a real frame) and caps
// what Append will put in one frame — oversized batches split. A var so
// tests can exercise the split path without 64 MiB payloads.
var maxFrameBytes = 64 << 20

// journalName is the journal's file name inside a tenant state directory.
const journalName = "journal.wal"

// frameMeta tracks one live frame's extent for head truncation.
type frameMeta struct {
	bytes   int64 // header + payload
	records int
	// start is the tenant-lifetime in-memory log index of the frame's
	// first record. MarkTrained(n) is expressed in log indices; explicit
	// per-frame starts keep the mapping exact even when a failed append
	// leaves a gap (records that reached the log but not the journal).
	start int64
}

// Journal is the append-only telemetry WAL of one tenant. All methods are
// safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	fsync  bool
	frames []frameMeta
	size   int64 // valid byte length of the file
	// nextIdx is the log index the next journaled record will carry:
	// every record the caller appends to the in-memory log must advance
	// it, through Append on success or NoteSkipped on failure.
	nextIdx int64
	records int64 // records currently in the journal

	// fsyncSeconds, when non-nil, times each append-path fsync (set by
	// the Manager when observability is configured).
	fsyncSeconds *obs.Histogram

	buf bytes.Buffer // reusable frame-encoding buffer
}

// JournalRecovery describes what opening a journal found.
type JournalRecovery struct {
	// Records is the replayable (not-yet-trained) telemetry.
	Records []telemetry.Record
	// DroppedBytes is the size of the torn/corrupt tail that was truncated
	// away (0 for a clean journal).
	DroppedBytes int64
	// Reason describes the corruption when DroppedBytes > 0.
	Reason string
}

// OpenJournal opens (creating if absent) the journal at path, scans every
// complete frame, and truncates any torn or corrupt tail in place. It
// never fails on corruption — only on I/O errors — so a crashed tenant
// always restarts with its good prefix.
func OpenJournal(path string, fsync bool) (*Journal, *JournalRecovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{path: path, f: f, fsync: fsync}
	rec, err := j.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rec.DroppedBytes > 0 {
		if err := f.Truncate(j.size); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("persist: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(j.size, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.records = int64(len(rec.Records))
	return j, rec, nil
}

// scan reads frames from the start of the file, filling j.frames/j.size
// and returning the decoded records plus what (if anything) was dropped.
func (j *Journal) scan() (*JournalRecovery, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	fi, err := j.f.Stat()
	if err != nil {
		return nil, err
	}
	rec := &JournalRecovery{}
	valid, reason, err := scanFrames(j.f, fi.Size(), func(payload []byte) error {
		recs, err := telemetry.ReadRecords(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("frame decode: %v", err)
		}
		rec.Records = append(rec.Records, recs...)
		j.frames = append(j.frames, frameMeta{bytes: frameHeaderBytes + int64(len(payload)), records: len(recs), start: j.nextIdx})
		j.nextIdx += int64(len(recs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.size = valid
	rec.DroppedBytes = fi.Size() - valid
	rec.Reason = reason
	return rec, nil
}

// scanFrames reads the frames of a total-byte file from r, handing each
// checksummed payload to decode (the slice is reused between calls). It
// returns the byte length of the complete-frame prefix and, when bytes
// follow it, why they were rejected: a torn header or payload, an
// implausible length, a checksum mismatch, or decode's own error. Only
// I/O errors fail the scan.
func scanFrames(r io.Reader, total int64, decode func(payload []byte) error) (valid int64, reason string, err error) {
	var header [frameHeaderBytes]byte
	var payload []byte
	for {
		remaining := total - valid
		if remaining == 0 {
			return valid, "", nil
		}
		if remaining < frameHeaderBytes {
			return valid, "torn frame header", nil
		}
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return valid, "", err
		}
		n := int64(binary.LittleEndian.Uint32(header[0:4]))
		sum := binary.LittleEndian.Uint32(header[4:8])
		if n > int64(maxFrameBytes) {
			return valid, fmt.Sprintf("implausible frame length %d", n), nil
		}
		if remaining < frameHeaderBytes+n {
			return valid, "torn frame payload", nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, "", err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid, "frame checksum mismatch", nil
		}
		if err := decode(payload); err != nil {
			return valid, err.Error(), nil
		}
		valid += frameHeaderBytes + n
	}
}

// frameHeader renders the header that precedes payload on disk.
func frameHeader(payload []byte) [frameHeaderBytes]byte {
	var header [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	return header
}

// Append writes one batch as a frame (one fsync per merged batch when
// enabled), splitting batches whose payload would exceed maxFrameBytes —
// scan() treats larger frames as corruption, so an oversized write must
// never report success. On a write error the file is rolled back to the
// previous frame boundary so a failed append never leaves a torn middle.
//
// Append always advances the log-index accounting by len(recs), success
// or not: the caller appends the batch to the in-memory log either way,
// and un-journaled records must stay visible to MarkTrained as a gap.
func (j *Journal) Append(recs []telemetry.Record) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.nextIdx += int64(len(recs))
		return fmt.Errorf("persist: journal closed")
	}
	return j.appendLocked(recs)
}

func (j *Journal) appendLocked(recs []telemetry.Record) error {
	j.buf.Reset()
	if err := telemetry.WriteRecords(&j.buf, recs); err != nil {
		j.nextIdx += int64(len(recs))
		return err
	}
	if j.buf.Len() > maxFrameBytes {
		if len(recs) == 1 {
			j.nextIdx++
			return fmt.Errorf("persist: single record encodes to %d bytes, over the %d frame cap", j.buf.Len(), maxFrameBytes)
		}
		// Halve until each piece fits; sub-appends do their own
		// accounting, and a failed first half skips the rest.
		half := len(recs) / 2
		if err := j.appendLocked(recs[:half]); err != nil {
			j.nextIdx += int64(len(recs) - half)
			return err
		}
		return j.appendLocked(recs[half:])
	}
	payload := j.buf.Bytes()
	header := frameHeader(payload)
	rollback := func(err error) error {
		_ = j.f.Truncate(j.size)
		_, _ = j.f.Seek(j.size, io.SeekStart)
		j.nextIdx += int64(len(recs))
		return err
	}
	if _, err := j.f.Write(header[:]); err != nil {
		return rollback(err)
	}
	if _, err := j.f.Write(payload); err != nil {
		return rollback(err)
	}
	if j.fsync {
		var t0 time.Time
		if j.fsyncSeconds != nil {
			t0 = time.Now()
		}
		if err := j.f.Sync(); err != nil {
			return rollback(err)
		}
		if !t0.IsZero() {
			j.fsyncSeconds.Record(time.Since(t0))
		}
	}
	j.frames = append(j.frames, frameMeta{bytes: int64(frameHeaderBytes + len(payload)), records: len(recs), start: j.nextIdx})
	j.nextIdx += int64(len(recs))
	j.size += int64(frameHeaderBytes + len(payload))
	j.records += int64(len(recs))
	return nil
}

// NoteSkipped records that n records entered the caller's in-memory log
// without going through Append at all. (Append itself accounts for its
// own failures.) The gap keeps every later frame's log-index range
// truthful, so MarkTrained can never cut a frame whose records were not
// actually covered by the training snapshot.
func (j *Journal) NoteSkipped(n int) {
	j.mu.Lock()
	j.nextIdx += int64(n)
	j.mu.Unlock()
}

// MarkTrained cuts from the head every frame fully covered by the first
// trained tenant-lifetime log records: after a snapshot that learned from
// log records [0, trained), the journal keeps only frames holding later
// records. Frames never straddle the training barrier (the serving
// flusher journals whole batches and the retrain flush barrier sits on a
// batch boundary), so the cut is exact.
func (j *Journal) MarkTrained(trained int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("persist: journal closed")
	}
	var cut int
	var cutBytes, cutRecords int64
	for _, fr := range j.frames {
		if fr.start+int64(fr.records) > trained {
			break
		}
		cut++
		cutBytes += fr.bytes
		cutRecords += int64(fr.records)
	}
	if cut == 0 {
		return nil
	}
	if cut == len(j.frames) {
		// Everything trained: truncate in place.
		if err := j.f.Truncate(0); err != nil {
			return err
		}
		if _, err := j.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if j.fsync {
			if err := j.f.Sync(); err != nil {
				return err
			}
		}
		j.frames = j.frames[:0]
		j.size = 0
	} else {
		// Rewrite the surviving suffix into a fresh file and swap it in —
		// the suffix is the small not-yet-trained tail, so this stays cheap.
		tmp := j.path + ".tmp"
		nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		src := io.NewSectionReader(j.f, cutBytes, j.size-cutBytes)
		if _, err := io.Copy(nf, src); err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
		if err := nf.Sync(); err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, j.path); err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
		// The rename took effect: j.path now names nf's inode. Swap the
		// in-memory state FIRST so that even if the directory fsync below
		// fails, later appends land in the live file rather than the
		// unlinked old one.
		old := j.f
		j.f = nf
		old.Close()
		j.frames = append(j.frames[:0], j.frames[cut:]...)
		j.size -= cutBytes
		j.records -= cutRecords
		if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
			return err
		}
		// Make the swap durable before reporting the cut done (a lost
		// rename would only resurrect already-trained frames, but it must
		// not be reordered after later appends).
		return syncDir(filepath.Dir(j.path))
	}
	j.records -= cutRecords
	return nil
}

// Records reports how many records the journal currently holds.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// SizeBytes reports the journal's current on-disk size.
func (j *Journal) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close syncs and closes the journal file. The sync is unconditional —
// even without per-append fsync, a graceful shutdown (SIGTERM drain) must
// leave the whole journal durable rather than relying on the OS flushing
// the page cache after exit.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
