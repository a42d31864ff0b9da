package extsort

import "fmt"

// OpenRemoteRun adopts an encoded run that lives behind a byte-ranged
// transport — typically another worker's HTTP shuffle service — as a
// remote Run of the given total encoded size holding records sorted
// records. readAt must return exactly the requested region of the
// encoded run; the caller supplies readahead (the block reader fetches
// mostly-sequential regions). Merging a remote run verifies the same
// footer index, trailer checksum, and per-block CRCs as a local one,
// so a corrupted or truncated transfer surfaces as ErrCorruptRun
// rather than wrong records. A remote run's backing bytes are owned by
// the producer: Discard releases nothing remote, and a failed consumer
// can be retried against the same source.
func OpenRemoteRun(size int64, records int, readAt ReadAtFunc, stats *IOStats) *Run {
	return &Run{remote: readAt, size: size, n: records, stats: stats}
}

// remoteFetcher adapts a ReadAtFunc to the blockFetcher surface.
type remoteFetcher struct {
	readAt ReadAtFunc
	size   int64
}

func (f *remoteFetcher) fetch(start, end uint64) ([]byte, error) {
	if start > end || end > uint64(f.size) {
		return nil, corruptf("block region [%d,%d) outside run of %d bytes", start, end, f.size)
	}
	region, err := f.readAt(int64(start), int(end-start))
	if err != nil {
		return nil, err
	}
	if uint64(len(region)) != end-start {
		return nil, corruptf("short read of block region [%d,%d): got %d bytes", start, end, len(region))
	}
	return region, nil
}

func (f *remoteFetcher) close() {}

// openRemoteRunSource opens a block source over a remote encoded run.
func openRemoteRunSource(size int64, readAt ReadAtFunc, stats *IOStats, cmp Compare, lo, hi []byte) (source, error) {
	src, err := newBlockSource(size, readAt, &remoteFetcher{readAt: readAt, size: size}, stats, cmp, lo, hi, nil)
	if err != nil {
		return nil, fmt.Errorf("extsort: open remote run: %w", err)
	}
	return src, nil
}
