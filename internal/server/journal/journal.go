// Package journal is the vqed write-ahead job journal: an append-only
// log of job lifecycle transitions (accepted → retrying → checkpointed →
// done/failed) that survives a SIGKILL of the daemon. On restart the
// journal is replayed: jobs that were accepted but never finished are
// re-enqueued, running jobs resume from their latest resilience
// checkpoint, and terminal jobs keep answering client polls with their
// recorded results.
//
// On-disk format: a flat sequence of length-prefixed, CRC-framed
// records, reusing the internal/resilience envelope conventions
// (CRC-32C over the raw payload bytes — the polynomial HPC filesystems
// use for payload integrity):
//
//	[uint32 LE payload length][uint32 LE CRC-32C(payload)][payload JSON]
//
// Appends are fsync-batched with group commit: concurrent Append calls
// coalesce into one fsync, and every Append returns only after its
// record is durable, so an acknowledged job is never lost to a crash. A
// crash mid-append leaves at most one torn record at the tail; Open
// detects it (short frame or CRC mismatch) and truncates the file back
// to the last intact record instead of refusing to start. Compact
// rewrites the journal to just the live records — the daemon calls it
// after replay and whenever the log has grown well past the live set —
// so the file stays proportional to in-flight work, not job history.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/telemetry"
)

// Op is a job lifecycle transition.
type Op string

const (
	// OpAccepted: the job passed admission; the record carries the spec.
	OpAccepted Op = "accepted"
	// OpRunning: a worker picked the job up (Attempt counts retries).
	// The daemon no longer writes it — accepted plus retrying records
	// carry the same facts — but replay still reads journals that hold it.
	OpRunning Op = "running"
	// OpCheckpointed: the job was interrupted (drain, stall, crash-adjacent
	// requeue) with a resumable checkpoint at Checkpoint; non-terminal —
	// replay resumes it.
	OpCheckpointed Op = "checkpointed"
	// OpRetrying: the job — or, with Point set, one sweep point — failed
	// retryably and re-runs; Attempt counts the retries spent.
	OpRetrying Op = "retrying"
	// OpDone: terminal success; the record carries the result.
	OpDone Op = "done"
	// OpFailed: terminal failure; the record carries the error.
	OpFailed Op = "failed"
	// OpInterrupted: terminal best-so-far halt (walltime or degraded
	// stall) with the partial result.
	OpInterrupted Op = "interrupted"

	// Sweep family lifecycle. JobID carries the sweep ID; point-level
	// records additionally set Point (1-based submission index) and use
	// SpecHash for the point's rs1 hash, while family-level records use
	// it for the sw1 family hash.

	// OpSweepAccepted: the family passed admission; the record carries
	// the full SweepSpec document.
	OpSweepAccepted Op = "sweep_accepted"
	// OpSweepPointDone: one point finished; the record carries its result.
	OpSweepPointDone Op = "sweep_point_done"
	// OpSweepPointFailed: one point settled terminally without a result.
	OpSweepPointFailed Op = "sweep_point_failed"
	// OpSweepCheckpoint: a point was interrupted (drain) with a resumable
	// checkpoint at Checkpoint; non-terminal — replay resumes the family.
	OpSweepCheckpoint Op = "sweep_checkpoint"
	// OpSweepDone / OpSweepFailed / OpSweepCancelled: family terminal.
	OpSweepDone      Op = "sweep_done"
	OpSweepFailed    Op = "sweep_failed"
	OpSweepCancelled Op = "sweep_cancelled"
)

// Terminal reports whether the op ends a single job's lifecycle.
func (o Op) Terminal() bool {
	return o == OpDone || o == OpFailed || o == OpInterrupted
}

// Sweep reports whether the op belongs to a sweep family's lifecycle.
func (o Op) Sweep() bool {
	switch o {
	case OpSweepAccepted, OpSweepPointDone, OpSweepPointFailed,
		OpSweepCheckpoint, OpSweepDone, OpSweepFailed, OpSweepCancelled:
		return true
	}
	return false
}

// Record is one journal entry. Spec and Result stay raw JSON so the
// journal does not depend on the spec schema — the server marshals and
// unmarshals at the boundary.
type Record struct {
	Op       Op     `json:"op"`
	JobID    string `json:"job_id"`
	SpecHash string `json:"spec_hash,omitempty"`
	// Spec is the submitted RunSpec document (OpAccepted only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Checkpoint is the resumable snapshot path (OpCheckpointed).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Attempt is the 0-based execution attempt (OpRunning, OpRetrying).
	Attempt int `json:"attempt,omitempty"`
	// Point is the 1-based submission-order index of a sweep member
	// (sweep point records only; 0 means the record is family-level).
	Point int `json:"point,omitempty"`
	// Error carries the failure text (OpFailed, OpRetrying).
	Error string `json:"error,omitempty"`
	// Result is the serialized runspec.Result (OpDone, OpInterrupted).
	Result json.RawMessage `json:"result,omitempty"`
}

const (
	frameHeaderSize = 8
	// maxRecordSize bounds one payload; a length prefix beyond it is
	// treated as tail corruption, not an allocation request.
	maxRecordSize = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	mAppends   = telemetry.GetCounter("journal.appends")
	mSyncs     = telemetry.GetCounter("journal.syncs")
	mBytes     = telemetry.GetCounter("journal.bytes")
	mTruncated = telemetry.GetCounter("journal.torn_tail_truncations")
	mCompacts  = telemetry.GetCounter("journal.compactions")
)

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	path string

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	err      error // sticky write/sync failure; all later Appends fail
	closed   bool
	writeSeq int64 // records written to the OS
	syncSeq  int64 // records known durable
	syncing  bool  // syncer is inside an fsync (compaction must wait)
	appended int   // records appended since Open/Compact

	syncerDone chan struct{}
}

// Open opens (creating if absent) the journal at path, replays every
// intact record, and truncates a torn tail — the crash signature of a
// kill mid-append — back to the last intact record. The returned records
// are in append order.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, good, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		// Torn or corrupt tail: everything before it is intact; drop the
		// rest so the next append starts on a frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		mTruncated.Inc()
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, syncerDone: make(chan struct{})}
	j.cond = sync.NewCond(&j.mu)
	go j.syncLoop(j.syncerDone)
	return j, recs, nil
}

// scan reads intact records from the start of f, returning them and the
// offset just past the last intact frame. Corruption is not an error —
// the scan simply stops there.
func scan(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: seek: %w", err)
	}
	var (
		recs   []Record
		offset int64
		header [frameHeaderSize]byte
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			// EOF here is a clean end; a partial header is a torn tail.
			return recs, offset, nil
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordSize {
			return recs, offset, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, offset, nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, offset, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, offset, nil
		}
		recs = append(recs, rec)
		offset += frameHeaderSize + int64(length)
	}
}

func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf, nil
}

// Append writes one record and blocks until it is durable on disk.
// Concurrent appends share fsyncs (group commit): the syncer coalesces
// every record written since the last barrier into a single fsync, so a
// burst of admissions pays one disk flush, not one each.
func (j *Journal) Append(rec Record) error {
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, werr := j.f.Write(buf); werr != nil {
		j.err = fmt.Errorf("journal: append %s: %w", j.path, werr)
		err := j.err
		j.cond.Broadcast()
		j.mu.Unlock()
		return err
	}
	j.writeSeq++
	j.appended++
	seq := j.writeSeq
	j.cond.Broadcast() // wake the syncer
	for j.syncSeq < seq && j.err == nil && !j.closed {
		//vqelint:ignore lockdiscipline group commit: Cond.Wait releases j.mu while parked; holding it here is the condition-variable protocol, not a stall
		j.cond.Wait()
	}
	err = j.err
	closed := j.closed && j.syncSeq < seq
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return fmt.Errorf("journal: %s closed before record was durable", j.path)
	}
	mAppends.Inc()
	mBytes.Add(int64(len(buf)))
	return nil
}

// syncLoop is the group-commit worker: it waits for unsynced writes,
// fsyncs once for however many have accumulated, and wakes every Append
// blocked on durability. done is closed when the loop exits (Close joins
// on it).
func (j *Journal) syncLoop(done chan struct{}) {
	defer close(done)
	//vqelint:ignore ctxflow lifecycle loop bounded by Close (j.closed wakes and exits it), not by a context — the journal outlives any request
	for {
		j.mu.Lock()
		for j.syncSeq == j.writeSeq && !j.closed && j.err == nil {
			//vqelint:ignore lockdiscipline Cond.Wait releases j.mu while parked; this is the syncer's idle wait, not a held-lock block
			j.cond.Wait()
		}
		if j.err != nil || (j.closed && j.syncSeq == j.writeSeq) {
			j.mu.Unlock()
			return
		}
		target := j.writeSeq
		f := j.f
		j.syncing = true
		j.mu.Unlock()

		err := f.Sync()

		j.mu.Lock()
		j.syncing = false
		if err != nil && j.err == nil {
			j.err = fmt.Errorf("journal: sync %s: %w", j.path, err)
		}
		if err == nil {
			j.syncSeq = target
			mSyncs.Inc()
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
}

// Appended reports how many records have been appended since Open or the
// last Compact — the compaction trigger the server compares against its
// live-job count.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Compact atomically replaces the journal contents with the records
// snapshot returns (the caller's view of live state): they are written
// to a temp file in the same directory, fsynced, and renamed over the
// journal, so a crash mid-compaction leaves the previous journal intact.
//
// snapshot runs under the journal lock, after every earlier append is
// durable and before the swap, so no append can land in the old file
// once the snapshot is taken: each record is either reflected in the
// snapshot (callers mutate state before appending its record) or
// appended to the new file. snapshot must not append.
func (j *Journal) Compact(snapshot func() []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	// Quiesce the syncer: wait out any in-flight fsync and drain pending
	// durability so no goroutine touches the old file once it is swapped.
	for (j.syncing || j.syncSeq < j.writeSeq) && j.err == nil {
		//vqelint:ignore lockdiscipline quiesce barrier: Cond.Wait releases j.mu so the syncer can finish; the lock must be reacquired before the swap
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}
	live := snapshot()

	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: compact temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	for _, rec := range live {
		buf, err := frame(rec)
		if err != nil {
			return cleanup(err)
		}
		if _, err := tmp.Write(buf); err != nil {
			return cleanup(fmt.Errorf("journal: compact write: %w", err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("journal: compact sync: %w", err))
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		return cleanup(fmt.Errorf("journal: compact rename: %w", err))
	}
	old := j.f
	j.f = tmp
	old.Close()
	j.appended = 0
	mCompacts.Inc()
	return nil
}

// Close flushes pending writes and releases the file. Further Appends
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	<-j.syncerDone

	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.err
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: close %s: %w", j.path, cerr)
	}
	return err
}
