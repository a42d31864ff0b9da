package mapreduce

import (
	"bytes"

	"ngramstats/internal/extsort"
)

// Values iterates over the values of the current reduce group, in the
// style of Hadoop's reduce(key, Iterable<value>). The slice returned by
// Value is only valid until the next call to Next.
type Values struct {
	it *extsort.Iterator

	groupKey []byte
	cur      []byte
	pending  bool // it holds a not-yet-consumed record
	done     bool // current group exhausted
	eof      bool // underlying iterator exhausted
	count    int64
}

func newValues(it *extsort.Iterator) *Values {
	v := &Values{it: it}
	v.pending = it.Next()
	v.eof = !v.pending
	v.done = true // no current group until nextGroup is called
	return v
}

// nextGroup advances to the next group, reporting whether one exists.
func (v *Values) nextGroup() bool {
	// Drain any unconsumed values of the current group.
	for v.Next() {
	}
	if v.eof || !v.pending {
		return false
	}
	v.groupKey = append(v.groupKey[:0], v.it.Key()...)
	v.done = false
	v.count = 0
	return true
}

// Key returns the key of the current group. The slice is stable for the
// duration of the group.
func (v *Values) Key() []byte { return v.groupKey }

// Next advances to the next value of the current group.
func (v *Values) Next() bool {
	if v.done {
		return false
	}
	if v.pending {
		// First value of the group (record already positioned).
		v.pending = false
		v.cur = v.it.Value()
		v.count++
		return true
	}
	if !v.it.Next() {
		v.eof = true
		v.done = true
		return false
	}
	if !bytes.Equal(v.it.Key(), v.groupKey) {
		// Start of the next group: buffer it.
		v.pending = true
		v.done = true
		return false
	}
	v.cur = v.it.Value()
	v.count++
	return true
}

// Value returns the current value.
func (v *Values) Value() []byte { return v.cur }

// Count returns the number of values consumed so far in this group.
func (v *Values) Count() int64 { return v.count }

// Err returns any error from the underlying merge iterator.
func (v *Values) Err() error { return v.it.Err() }
