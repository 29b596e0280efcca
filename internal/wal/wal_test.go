package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// collect drains a replay cursor, failing the test on any error.
func collect(t *testing.T, dir string) []Record {
	t.Helper()
	var recs []Record
	for r, err := range Replay(dir) {
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		recs = append(recs, r)
	}
	return recs
}

// appendN appends payloads "rec-<seq>" for n records and returns them.
func appendN(t *testing.T, l *Log, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		p := fmt.Appendf(nil, "rec-%d", l.LastSeq()+1)
		if _, err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, p)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 5)
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if !bytes.Equal(r.Payload, want[i]) {
			t.Errorf("record %d: payload %q, want %q", i, r.Payload, want[i])
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(collect(t, dir)); n != 4 {
		t.Fatalf("replayed %d records, want 4", n)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record larger than a few bytes forces rotation.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("Segments() = %d, want >= 3 after forced rotation", got)
	}
	recs := func() []Record {
		var out []Record
		for r, err := range l.Replay() {
			if err != nil {
				t.Fatalf("live replay: %v", err)
			}
			out = append(out, r)
		}
		return out
	}()
	if len(recs) != 6 {
		t.Fatalf("live replay saw %d records, want 6", len(recs))
	}

	removed, err := l.Compact(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact(4) removed no segments")
	}
	if first := l.FirstSeq(); first == 0 || first > 5 {
		t.Fatalf("FirstSeq after compaction = %d, want in (0,5]", first)
	}
	// Replay after compaction starts past the removed segments but still
	// reaches the tail.
	var seqs []uint64
	for r, err := range l.Replay() {
		if err != nil {
			t.Fatalf("replay after compaction: %v", err)
		}
		seqs = append(seqs, r.Seq)
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 6 {
		t.Fatalf("replay after compaction ends at %v, want last seq 6", seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactNeverRemovesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	removed, err := l.Compact(3)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("Compact removed %d segments including the active one", removed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(collect(t, dir)); n != 3 {
		t.Fatalf("records after compaction attempt = %d, want 3", n)
	}
}

// tornVariant mutates the final segment's bytes to simulate a crash.
type tornVariant struct {
	name string
	// mutate returns the damaged replacement for the segment bytes.
	mutate func([]byte) []byte
}

func tornVariants() []tornVariant {
	return []tornVariant{
		{"half record header", func(b []byte) []byte { return b[:len(b)-recHeaderSize+3-0] }},
		{"half payload", func(b []byte) []byte { return b[:len(b)-2] }},
		{"length only", func(b []byte) []byte {
			// Keep 4 bytes of the final record's 12-byte header.
			return b[:lastRecordOffset(b)+4]
		}},
		{"bit-flipped payload tail", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40
			return c
		}},
		{"bit-flipped length tail", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[lastRecordOffset(c)] ^= 0x10
			return c
		}},
	}
}

// lastRecordOffset walks a valid segment and returns the offset of its
// final record.
func lastRecordOffset(b []byte) int64 {
	off := int64(segHeaderSize)
	last := off
	for off < int64(len(b)) {
		last = off
		n := int64(binary.LittleEndian.Uint32(b[off:]))
		off += recHeaderSize + n
	}
	return last
}

func TestTornTailRepair(t *testing.T) {
	for _, v := range tornVariants() {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 4)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, v.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// Read-only replay surfaces the torn tail after the intact prefix.
			var got int
			var tailErr error
			for r, err := range Replay(dir) {
				if err != nil {
					tailErr = err
					break
				}
				_ = r
				got++
			}
			if !errors.Is(tailErr, ErrTornTail) {
				t.Fatalf("read-only replay error = %v, want ErrTornTail", tailErr)
			}
			if got != 3 {
				t.Fatalf("read-only replay yielded %d records before the tear, want 3", got)
			}

			// Open repairs by truncation and the log keeps working.
			l, err = Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after tear: %v", err)
			}
			if l.TornRepairs() != 1 {
				t.Fatalf("TornRepairs = %d, want 1", l.TornRepairs())
			}
			if l.LastSeq() != 3 {
				t.Fatalf("LastSeq after repair = %d, want 3", l.LastSeq())
			}
			if seq, err := l.Append([]byte("replacement")); err != nil || seq != 4 {
				t.Fatalf("append after repair: seq %d, err %v; want 4, nil", seq, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(collect(t, dir)); n != 4 {
				t.Fatalf("records after repair+append = %d, want 4", n)
			}
		})
	}
}

func TestTornHeaderSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 40)
	for i := 0; i < 3; i++ { // forces at least one rotation
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	last := l.LastSeq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash inside the header write of a freshly rotated segment.
	stub := filepath.Join(dir, segName(last+1))
	if err := os.WriteFile(stub, []byte(Magic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn-header stub: %v", err)
	}
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Fatalf("torn-header stub still exists (stat err %v)", err)
	}
	if l.LastSeq() != last {
		t.Fatalf("LastSeq = %d, want %d", l.LastSeq(), last)
	}
	if seq, err := l.Append([]byte("next")); err != nil || seq != last+1 {
		t.Fatalf("append after stub removal: seq %d, err %v; want %d, nil", seq, err, last+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the FIRST record: valid records follow, so this
	// is corruption, not a torn tail.
	data[segHeaderSize+recHeaderSize] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open = %v, want ErrChecksum", err)
	}
	var tailErr error
	for _, err := range Replay(dir) {
		if err != nil {
			tailErr = err
			break
		}
	}
	if !errors.Is(tailErr, ErrChecksum) {
		t.Fatalf("replay error = %v, want ErrChecksum", tailErr)
	}
}

func TestBadMagicFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	data[0] = 'X'
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open = %v, want ErrFormat", err)
	}
}

func TestSequenceGapFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 40)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete a middle segment: the survivors no longer join up.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("Open = %v, want ErrFormat", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol, SyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 10)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(collect(t, dir)); n != 10 {
				t.Fatalf("records = %d, want 10", n)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir)
	if len(recs) != workers*per {
		t.Fatalf("records = %d, want %d", len(recs), workers*per)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: sequence not dense", i, r.Seq)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestLiveReplayBoundedUnderConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20)
	cursor := l.Replay()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Append([]byte("concurrent"))
			}
		}
	}()
	var seen int
	for r, err := range cursor {
		if err != nil {
			t.Errorf("bounded replay error: %v", err)
			break
		}
		if r.Seq <= 20 {
			seen++
		}
	}
	close(stop)
	wg.Wait()
	if seen != 20 {
		t.Fatalf("bounded replay saw %d of the 20 pre-cursor records", seen)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyLogReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 0 {
		t.Fatalf("LastSeq on empty log = %d, want 0", got)
	}
	if got := l.FirstSeq(); got != 0 {
		t.Fatalf("FirstSeq on empty log = %d, want 0", got)
	}
	for range l.Replay() {
		t.Fatal("empty log yielded a record")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(collect(t, dir)); n != 0 {
		t.Fatalf("read-only replay of empty log yielded %d records", n)
	}
}

func TestRecordChecksumMatchesSpec(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("spec check")
	if _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(data[segHeaderSize:]); got != uint32(len(payload)) {
		t.Fatalf("length prefix = %d, want %d", got, len(payload))
	}
	want := crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA))
	if got := binary.LittleEndian.Uint64(data[segHeaderSize+4:]); got != want {
		t.Fatalf("record CRC = %x, want CRC-64/ECMA %x", got, want)
	}
}

// A failed fsync must fail the log closed: the kernel may have dropped the
// dirty pages, so a retried append whose fsync "succeeds" would acknowledge
// data that is not on disk. Every later Append, Sync and rotation returns
// the first failure; Close still closes the file.
func TestFsyncFailureFailsLogClosed(t *testing.T) {
	dir := t.TempDir()
	// 70-byte segments hold the header and the first two records: the
	// third append, the retry, would rotate.
	l, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 70})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1)
	eio := errors.New("injected EIO")
	FailSyncs(t, 1, eio)

	if _, err := l.Append([]byte("lost")); !errors.Is(err, eio) || !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("append over a failing fsync: err = %v, want ErrSyncFailed wrapping the cause", err)
	}
	// fsync works again from here on; the log must not.
	if seq, err := l.Append([]byte("retry")); !errors.Is(err, eio) || !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("retried append: seq %d, err = %v, want the sticky fsync failure", seq, err)
	}
	if err := l.Sync(); !errors.Is(err, eio) {
		t.Fatalf("Sync after a failed fsync: err = %v, want the sticky failure", err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("failed log rotated: %d segments", got)
	}
	if err := l.Close(); !errors.Is(err, eio) {
		t.Fatalf("Close: err = %v, want the sticky failure", err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close: err = %v, want ErrClosed", err)
	}
	// Close released the file: the directory reopens, and whatever reached
	// the disk replays without a format error.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopening after a failed-closed log: %v", err)
	}
	defer l2.Close()
	if recs := collect(t, dir); len(recs) == 0 || string(recs[0].Payload) != "rec-1" {
		t.Fatalf("acknowledged record missing after reopen: %v", recs)
	}
}

// Under SyncNever Append never fsyncs, and the background flusher of
// SyncInterval used to drop its error: both must still see a failure that
// Sync or the flusher ran into.
func TestFsyncFailureSticksAcrossPolicies(t *testing.T) {
	eio := errors.New("injected EIO")
	t.Run("never", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendN(t, l, 1)
		FailSyncs(t, 1, eio)
		if err := l.Sync(); !errors.Is(err, eio) {
			t.Fatalf("Sync: err = %v, want the injected failure", err)
		}
		if _, err := l.Append([]byte("x")); !errors.Is(err, eio) {
			t.Fatalf("append after a failed Sync: err = %v, want the sticky failure", err)
		}
	})
	t.Run("interval flusher", func(t *testing.T) {
		calls := FailSyncs(t, 1, eio)
		l, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// A zero lastSync would make the append below sync inline; push it
		// out so that the fsync that fails is the flusher's.
		l.mu.Lock()
		l.lastSync = time.Now().Add(time.Hour)
		l.mu.Unlock()
		if _, err := l.Append([]byte("dirty")); err != nil {
			t.Fatalf("append before the flusher ran: %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			l.mu.Lock()
			n := *calls
			l.mu.Unlock()
			if n > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("flusher never synced")
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := l.Append([]byte("x")); !errors.Is(err, eio) {
			t.Fatalf("append after the flusher's fsync failed: err = %v, want the sticky failure", err)
		}
	})
}
