package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openOrFatal(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, recs := openOrFatal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Op: OpAccepted, JobID: "job-000001", SpecHash: "rs1:abc", Spec: json.RawMessage(`{"problem":{"molecule":"h2"}}`)},
		{Op: OpRunning, JobID: "job-000001", Attempt: 0},
		{Op: OpCheckpointed, JobID: "job-000001", Checkpoint: "/spool/job-000001.ckpt"},
		{Op: OpRetrying, JobID: "job-000001", Attempt: 1, Error: "server: worker panic"},
		{Op: OpDone, JobID: "job-000001", SpecHash: "rs1:abc", Result: json.RawMessage(`{"energy":-1.137}`)},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Op, err)
		}
	}
	if got := j.Appended(); got != len(want) {
		t.Fatalf("Appended() = %d, want %d", got, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, got := openOrFatal(t, path)
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Op != b.Op || a.JobID != b.JobID || a.SpecHash != b.SpecHash ||
			a.Checkpoint != b.Checkpoint || a.Attempt != b.Attempt || a.Error != b.Error ||
			string(a.Spec) != string(b.Spec) || string(a.Result) != string(b.Result) {
			t.Errorf("record %d: got %+v, want %+v", i, b, a)
		}
	}
}

func TestOpTerminal(t *testing.T) {
	for op, want := range map[Op]bool{
		OpAccepted: false, OpRunning: false, OpCheckpointed: false,
		OpRetrying: false, OpDone: true, OpFailed: true, OpInterrupted: true,
	} {
		if op.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", op, !want, want)
		}
	}
}

// TestTornFinalRecordTruncated is the crash signature: SIGKILL mid-append
// leaves a partial frame at the tail. Open must keep every intact record
// and truncate the torn one so subsequent appends land on a clean
// boundary.
func TestTornFinalRecordTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Op: OpAccepted, JobID: fmt.Sprintf("job-%06d", i+1)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Cut the file at several points inside the final frame: inside the
	// header, right after it, and mid-payload.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := int64(len(full))
	lastLen := binary.LittleEndian.Uint32(full[lastFrameOffset(t, full):])
	_ = lastLen
	for _, cut := range []int64{intact - 1, intact - 5, lastFrameOffset(t, full) + 3} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs := openOrFatal(t, path)
		if len(recs) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(recs))
		}
		// The tail must be gone: appending then reopening yields 3 records.
		if err := j2.Append(Record{Op: OpAccepted, JobID: "job-000009"}); err != nil {
			t.Fatalf("Append after truncation: %v", err)
		}
		if err := j2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		j3, recs3 := openOrFatal(t, path)
		if len(recs3) != 3 || recs3[2].JobID != "job-000009" {
			t.Fatalf("cut at %d: after re-append replayed %v", cut, recs3)
		}
		j3.Close()
	}
}

// lastFrameOffset walks the frames and returns the offset of the final
// frame's header.
func lastFrameOffset(t *testing.T, buf []byte) int64 {
	t.Helper()
	var off, prev int64
	for off+frameHeaderSize <= int64(len(buf)) {
		prev = off
		length := binary.LittleEndian.Uint32(buf[off : off+4])
		off += frameHeaderSize + int64(length)
	}
	return prev
}

// TestCorruptTailCRC flips a payload bit in the final record: the CRC
// must reject it and replay stops at the previous record.
func TestCorruptTailCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	for i := 0; i < 2; i++ {
		if err := j.Append(Record{Op: OpAccepted, JobID: fmt.Sprintf("job-%06d", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := lastFrameOffset(t, buf)
	buf[last+frameHeaderSize+2] ^= 0x40 // flip a payload bit in the final record
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := openOrFatal(t, path)
	defer j2.Close()
	if len(recs) != 1 || recs[0].JobID != "job-000001" {
		t.Fatalf("corrupt tail: replayed %+v, want only job-000001", recs)
	}
}

// TestAbsurdLengthPrefixTreatedAsCorruption guards the allocation path:
// a giant length prefix must stop the scan, not allocate gigabytes.
func TestAbsurdLengthPrefixTreatedAsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	if err := j.Append(Record{Op: OpAccepted, JobID: "job-000001"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j2, recs := openOrFatal(t, path)
	defer j2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	for i := 0; i < 50; i++ {
		if err := j.Append(Record{Op: OpAccepted, JobID: fmt.Sprintf("job-%06d", i+1)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Op: OpDone, JobID: fmt.Sprintf("job-%06d", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	live := []Record{
		{Op: OpAccepted, JobID: "job-000050", SpecHash: "rs1:live"},
		{Op: OpCheckpointed, JobID: "job-000050", Checkpoint: "ck"},
	}
	if err := j.Compact(func() []Record { return live }); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := j.Appended(); got != 0 {
		t.Fatalf("Appended() after Compact = %d, want 0", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	// The compacted journal must still accept appends and replay the live
	// set plus anything after.
	if err := j.Append(Record{Op: OpDone, JobID: "job-000050"}); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openOrFatal(t, path)
	defer j2.Close()
	if len(recs) != 3 || recs[0].SpecHash != "rs1:live" || recs[2].Op != OpDone {
		t.Fatalf("post-compact replay: %+v", recs)
	}
}

// TestConcurrentAppendsGroupCommit hammers Append from many goroutines:
// every record must be durable and replayable, and the group-commit path
// must be race-clean (this test is the -race workload).
func TestConcurrentAppendsGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	const (
		writers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := Record{Op: OpAccepted, JobID: fmt.Sprintf("job-%02d-%03d", w, i)}
				if err := j.Append(rec); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openOrFatal(t, path)
	defer j2.Close()
	if len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.JobID] {
			t.Fatalf("duplicate record %s", r.JobID)
		}
		seen[r.JobID] = true
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpAccepted, JobID: "job-000001"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := j.Compact(func() []Record { return nil }); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestOpenPathError(t *testing.T) {
	dir := t.TempDir()
	// A directory at the journal path is the canonical "disk is wrong"
	// failure the server degrades on.
	bad := filepath.Join(dir, "journal.wal")
	if err := os.Mkdir(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(bad); err == nil {
		t.Fatal("Open on a directory succeeded")
	}
}

// TestCompactConcurrentWithAppends interleaves compaction with live
// appends; both must serialize cleanly and nothing may be lost after the
// compaction barrier.
func TestCompactConcurrentWithAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openOrFatal(t, path)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := j.Append(Record{Op: OpAccepted, JobID: fmt.Sprintf("bg-%04d", i)}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := j.Compact(func() []Record { return []Record{{Op: OpAccepted, JobID: "live"}} }); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := j.Append(Record{Op: OpDone, JobID: "final"}); err != nil {
		t.Fatalf("Append after concurrent compacts: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openOrFatal(t, path)
	found := false
	for _, r := range recs {
		if r.JobID == "final" {
			found = true
		}
	}
	if !found {
		t.Fatalf("final record lost across compactions: %+v", recs)
	}
}
