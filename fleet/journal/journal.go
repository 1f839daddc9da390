// Package journal is a crash-safe append-only record log — the write-ahead
// log under fleetd's durability contract. Records are opaque (kind byte +
// payload) and framed as
//
//	length  uint32 LE   // len(payload) + 1 (the kind byte)
//	crc     uint32 LE   // CRC-32C (Castagnoli) over kind + payload
//	kind    byte
//	payload length-1 bytes
//
// Append frames, writes and fsyncs before returning, so an acknowledged
// record survives SIGKILL and power loss. Open replays the file front to
// back; the first frame that fails validation — short header, absurd length,
// short body, CRC mismatch — marks the torn tail left by a crash mid-write,
// and Open truncates the file back to the last whole record instead of
// failing. Under the fsync-before-acknowledge discipline only the tail can
// be torn; a mid-file flip (disk corruption) is indistinguishable from a
// tail and everything from the bad frame on is dropped the same way.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// MaxRecord bounds a record's framed payload (kind + payload bytes). A
// length field beyond it is treated as corruption, so a flipped length byte
// cannot make replay attempt a multi-gigabyte read.
const MaxRecord = 16 << 20

const headerSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed entry: the kind byte and its payload. The payload
// slice is owned by the caller.
type Record struct {
	Kind    byte
	Payload []byte
}

// maxRetainedFrame caps the frame buffer a Log keeps between appends: a
// batch that framed more than this drops its buffer, so one large batch
// does not pin its memory for the life of the log.
const maxRetainedFrame = 64 << 10

// Log is an open journal file. Append is safe for concurrent use; the log
// keeps its own error state so a failed disk turns every later Append (and
// Healthy) into that error instead of silently dropping records.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	err  error
	buf  []byte // frame buffer, reused across appends under mu
}

// Open opens (creating if absent) the journal at path, replays every intact
// record, truncates a torn or corrupt tail back to the last whole record,
// and returns the log positioned for append. truncated reports how many
// trailing bytes were cut; it is zero for a cleanly-closed journal.
func Open(path string) (l *Log, recs []Record, truncated int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: read: %w", err)
	}
	recs, clean := Scan(data)
	truncated = int64(len(data)) - clean
	if truncated > 0 {
		if err := f.Truncate(clean); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(clean, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	// Make the file's directory entry durable too: a journal created just
	// before a crash must still be found on restart.
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return &Log{f: f, size: clean}, recs, truncated, nil
}

// Scan replays journal bytes from memory: it returns every intact record
// and the byte offset of the clean prefix (everything past it is a torn or
// corrupt tail). Exposed so tests can frame-check arbitrary byte strings.
func Scan(data []byte) (recs []Record, clean int64) {
	off := 0
	for {
		if len(data)-off < headerSize {
			return recs, int64(off)
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > MaxRecord {
			return recs, int64(off)
		}
		body := data[off+headerSize:]
		if uint32(len(body)) < length {
			return recs, int64(off)
		}
		body = body[:length]
		if crc32.Checksum(body, castagnoli) != crc {
			return recs, int64(off)
		}
		payload := make([]byte, length-1)
		copy(payload, body[1:])
		recs = append(recs, Record{Kind: body[0], Payload: payload})
		off += headerSize + int(length)
	}
}

// frame appends one record's wire form to buf. The CRC is taken over the
// kind and payload where they land in buf, so framing allocates nothing
// beyond buf's own growth.
func frame(buf []byte, kind byte, payload []byte) ([]byte, error) {
	length := 1 + len(payload)
	if length > MaxRecord {
		return nil, fmt.Errorf("journal: record %d bytes exceeds MaxRecord", length)
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(length))
	buf = append(buf, 0, 0, 0, 0, kind)
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+headerSize:], castagnoli))
	return buf, nil
}

// Append frames one record, writes it, and fsyncs before returning: once
// Append returns nil the record is durable.
func (l *Log) Append(kind byte, payload []byte) error {
	return l.AppendBatch([]Record{{Kind: kind, Payload: payload}})
}

// AppendBatch appends records back to back under a single fsync — the batch
// is durable as a unit (a crash mid-batch leaves a torn tail that Open cuts
// back to the last whole record).
func (l *Log) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	buf := l.buf[:0]
	var err error
	for _, r := range recs {
		if buf, err = frame(buf, r.Kind, r.Payload); err != nil {
			return err
		}
	}
	if cap(buf) <= maxRetainedFrame {
		l.buf = buf
	} else {
		l.buf = nil
	}
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("journal: write: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("journal: fsync: %w", err)
		return l.err
	}
	l.size += int64(len(buf))
	return nil
}

// Healthy returns nil while the log can still accept records; after a write
// or fsync failure it returns that error permanently (the readiness probe's
// journal-writable check).
func (l *Log) Healthy() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Size returns the current clean length of the journal in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases the file handle. A closed log fails further Appends.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = fmt.Errorf("journal: closed")
	}
	return l.f.Close()
}
