package kvstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"

	"ngramstats/internal/encoding"
)

// List is an append-only list of byte records read back in order.
// Records are buffered in memory up to a budget and spilled to a single
// backing file beyond it. APRIORI-INDEX's join reducer uses it to
// buffer the posting-list values of a reduce group, which "have to be
// buffered, and a scalable implementation must deal with the case when
// this is not possible in the available main memory" (Section III-B).
type List struct {
	mu       sync.Mutex
	budget   int
	tempDir  string
	mem      [][]byte
	memBytes int
	file     *os.File
	w        *bufio.Writer
	fileLen  int64
	closed   bool
}

// NewList creates a List with the given memory budget in bytes (zero
// selects 16 MiB) spilling to tempDir.
func NewList(budget int, tempDir string) *List {
	if budget <= 0 {
		budget = 16 << 20
	}
	return &List{budget: budget, tempDir: tempDir}
}

// Append adds a record (copied).
func (l *List) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("kvstore: Append on closed list")
	}
	l.mem = append(l.mem, append([]byte(nil), rec...))
	l.memBytes += len(rec) + 32
	if l.memBytes >= l.budget {
		return l.spillLocked()
	}
	return nil
}

// spillLocked appends the buffered records to the backing file. Reads
// go through ReadAt, so the file's write position is always its end.
func (l *List) spillLocked() error {
	if l.file == nil {
		f, err := os.CreateTemp(l.tempDir, "kvlist-*.dat")
		if err != nil {
			return fmt.Errorf("kvstore: create list spill: %w", err)
		}
		l.file = f
		l.w = bufio.NewWriterSize(f, 256<<10)
	}
	for _, rec := range l.mem {
		if err := encoding.WriteRecord(l.w, nil, rec); err != nil {
			return fmt.Errorf("kvstore: write list spill: %w", err)
		}
		l.fileLen += int64(encoding.RecordLen(0, len(rec)))
	}
	l.mem = l.mem[:0]
	l.memBytes = 0
	return nil
}

// Each calls fn for every record in order. The slice passed to fn is
// only valid during the call.
func (l *List) Each(fn func(rec []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("kvstore: Each on closed list")
	}
	if l.file != nil {
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("kvstore: flush list spill: %w", err)
		}
		rr := encoding.NewRecordReader(bufio.NewReaderSize(io.NewSectionReader(l.file, 0, l.fileLen), 256<<10))
		for {
			_, v, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := fn(v); err != nil {
				return err
			}
		}
	}
	for _, rec := range l.mem {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the backing file, if any.
func (l *List) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.mem = nil
	if l.file != nil {
		name := l.file.Name()
		l.file.Close()
		return os.Remove(name)
	}
	return nil
}
