package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, path string) (*Log, []Record, int64) {
	t.Helper()
	l, recs, trunc, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs, trunc
}

func sampleRecords() []Record {
	return []Record{
		{Kind: 1, Payload: []byte(`{"id":1,"spec":{"seed":7}}`)},
		{Kind: 2, Payload: []byte(`{"id":1,"digests":{"trajectory":"aa"}}`)},
		{Kind: 3, Payload: nil}, // empty payload is legal: length = 1 (kind only)
		{Kind: 2, Payload: bytes.Repeat([]byte{0xA5}, 1024)},
	}
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestRoundTrip pins the basic contract: append, reopen, replay identical
// records, keep appending on the reopened log.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "fleet.wal")
	l, recs, trunc := mustOpen(t, path)
	if len(recs) != 0 || trunc != 0 {
		t.Fatalf("fresh journal replayed %d records, truncated %d", len(recs), trunc)
	}
	want := sampleRecords()
	for _, r := range want[:2] {
		if err := l.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendBatch(want[2:]); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(9, nil); err == nil {
		t.Fatal("append on a closed log succeeded")
	}

	l2, recs, trunc := mustOpen(t, path)
	defer l2.Close()
	if trunc != 0 {
		t.Fatalf("clean journal reported %d torn bytes", trunc)
	}
	if !recordsEqual(recs, want) {
		t.Fatalf("replay mismatch:\n got %v\nwant %v", recs, want)
	}
	if l2.Size() != size {
		t.Fatalf("size after reopen %d, want %d", l2.Size(), size)
	}
	if err := l2.Append(5, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, _ = mustOpen(t, path)
	if len(recs) != len(want)+1 || recs[len(recs)-1].Kind != 5 {
		t.Fatalf("append after reopen lost: %v", recs)
	}
}

// writeJournal writes records through the real Append path and returns the
// file's bytes.
func writeJournal(t *testing.T, path string, recs []Record) []byte {
	t.Helper()
	l, _, _ := mustOpen(t, path)
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTornTailEveryOffset is the crash-mid-write property: truncating the
// file at EVERY byte offset inside the final frame must recover exactly the
// earlier records, cut the file back to the clean boundary, and leave the
// journal appendable.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	data := writeJournal(t, filepath.Join(dir, "full.wal"), want)

	// Clean boundary before the last record.
	prefix, lastStart := Scan(data[:len(data)-1])
	if int64(len(prefix)) != int64(len(want)-1) {
		t.Fatalf("scan setup: %d records before torn tail", len(prefix))
	}

	for cut := int(lastStart); cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn_%d.wal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, trunc := mustOpen(t, path)
		if !recordsEqual(recs, want[:len(want)-1]) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), len(want)-1)
		}
		if wantTrunc := int64(cut) - lastStart; trunc != wantTrunc {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, trunc, wantTrunc)
		}
		if fi, _ := os.Stat(path); fi.Size() != lastStart {
			t.Fatalf("cut %d: file left at %d bytes, want clean boundary %d", cut, fi.Size(), lastStart)
		}
		// The recovered journal must accept the re-issued record and replay
		// whole on the next open.
		if err := l.Append(want[len(want)-1].Kind, want[len(want)-1].Payload); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l.Close()
		_, recs, trunc = mustOpen(t, path)
		if !recordsEqual(recs, want) || trunc != 0 {
			t.Fatalf("cut %d: re-issued journal replayed %d records (trunc %d)", cut, len(recs), trunc)
		}
	}
}

// TestCorruptTail flips one byte in the final record's payload and in its
// CRC: both must be detected and truncated, never replayed.
func TestCorruptTail(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	data := writeJournal(t, filepath.Join(dir, "full.wal"), want)
	_, lastStart := Scan(data[:len(data)-1])

	for name, flip := range map[string]int{
		"crc":     int(lastStart) + 5,          // inside the CRC field
		"payload": len(data) - 3,               // inside the payload
		"kind":    int(lastStart) + headerSize, // the kind byte
		"length":  int(lastStart) + 1,          // middle byte of the length
	} {
		mut := append([]byte(nil), data...)
		mut[flip] ^= 0x40
		path := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, trunc := mustOpen(t, path)
		l.Close()
		if !recordsEqual(recs, want[:len(want)-1]) {
			t.Fatalf("%s flip: replayed %d records, want %d", name, len(recs), len(want)-1)
		}
		if trunc == 0 {
			t.Fatalf("%s flip: no truncation reported", name)
		}
	}
}

// TestAbsurdLengthGuard: a length field past MaxRecord is corruption, not a
// 4 GiB allocation.
func TestAbsurdLengthGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	want := sampleRecords()[:1]
	data := writeJournal(t, path, want)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(MaxRecord+1))
	if err := os.WriteFile(path, append(data, hdr[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, trunc := mustOpen(t, path)
	l.Close()
	if !recordsEqual(recs, want) || trunc != headerSize {
		t.Fatalf("absurd length: %d records, trunc %d", len(recs), trunc)
	}
}

// TestMidFileCorruptionDropsSuffix documents the WAL rule: the first bad
// frame ends replay, so a mid-file flip drops every later record too (only
// the tail can be torn under fsync-before-acknowledge; anything else is
// disk corruption and the journal refuses to guess past it).
func TestMidFileCorruptionDropsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mid.wal")
	data := writeJournal(t, path, sampleRecords())
	mut := append([]byte(nil), data...)
	mut[headerSize+2] ^= 0xFF // payload byte of record 0
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, trunc := mustOpen(t, path)
	l.Close()
	if len(recs) != 0 || trunc != int64(len(data)) {
		t.Fatalf("mid-file flip: %d records, trunc %d, want 0 and %d", len(recs), trunc, len(data))
	}
}

// TestOversizeAppendRefused: MaxRecord is enforced on the write side too.
func TestOversizeAppendRefused(t *testing.T) {
	l, _, _ := mustOpen(t, filepath.Join(t.TempDir(), "x.wal"))
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxRecord)); err == nil {
		t.Fatal("oversize record accepted")
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("oversize refusal poisoned the log: %v", err)
	}
}

// TestAppendReusesFrameBuffer pins the append path's memory: a warm Append
// frames into the log's retained buffer and allocates nothing, a batch that
// frames more than maxRetainedFrame does not stay pinned, and reuse changes
// no byte of the file.
//
// The allocation count is process-wide, and each Append blocks in fsync,
// which lets the runtime run its background goroutines on the test's P.
// Under the race detector on a loaded host a window counted one object; a
// per-window memory profile (MemProfileRate 1) attributes such an object to
// runtime.bgscavenge growing a timer heap (runtime.(*timers).addHeap), not
// to Append. The race build, where the slower windows catch it, skips only
// the count; make bench-batch keeps it in the plain build.
func TestAppendReusesFrameBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _, _ := mustOpen(t, path)
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	want := []Record{{Kind: 1, Payload: payload}}
	if err := l.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	const window = 20
	if n := testing.AllocsPerRun(1, func() {
		for range window {
			if err := l.Append(2, payload[:512]); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 && !raceEnabled {
		t.Fatalf("%d warm Appends allocate %.0f objects", window, n)
	}
	for range 2 * window { // AllocsPerRun runs the window once to warm up, then once measured
		want = append(want, Record{Kind: 2, Payload: payload[:512]})
	}

	big := []Record{{Kind: 3, Payload: bytes.Repeat([]byte{0xC3}, maxRetainedFrame)}}
	if err := l.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if l.buf != nil {
		t.Fatalf("a %d-byte batch left a %d-byte frame buffer pinned", len(big[0].Payload), cap(l.buf))
	}
	if err := l.Append(4, nil); err != nil {
		t.Fatal(err)
	}
	if l.buf == nil {
		t.Fatal("a small append after a large batch retains no frame buffer")
	}
	l.Close()
	want = append(want, big[0], Record{Kind: 4, Payload: []byte{}})

	_, recs, trunc := mustOpen(t, path)
	if trunc != 0 || !recordsEqual(recs, want) {
		t.Fatalf("replay after buffer reuse: %d records (truncated %d), want %d", len(recs), trunc, len(want))
	}
}
