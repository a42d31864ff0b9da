// Package index implements the persistent n-gram index: a sharded,
// self-describing on-disk layout that turns a completed computation's
// result into a durable, concurrently queryable artifact.
//
// The paper computes n-gram statistics as a one-shot MapReduce job; in
// the Dean & Ghemawat model the reducer output then lives on as files
// consumed by downstream services (the Google Books n-gram viewer being
// the canonical downstream for exactly this data). This package is that
// hand-off: an index directory holds
//
//	MANIFEST.json    its own CRC-32C, format version, corpus name,
//	                 aggregation kind, record/shard inventory (with byte
//	                 sizes, first/last keys, and a CRC for the
//	                 dictionary), plus a snapshot of the producing run's
//	                 counters
//	dictionary.tsv   the frequency-ranked term dictionary (term \t cf)
//	shard-NNNNN.run  the records, globally sorted by encoded key and cut
//	                 into roughly equal shards, each in the block-framed,
//	                 prefix-compressed, CRC-checked run format of
//	                 internal/extsort
//	top.run          optional precomputed top-k records in rank order,
//	                 so small TopK queries never scan
//
// Reads are served by Index: the manifest names the one shard whose key
// range can contain a key, the shard's footer index names the one block,
// and decoded blocks are kept in a kvstore.LRU so hot blocks never
// re-decode. All state is immutable after Open and shard reads use
// pread, so queries run concurrently without locks (the block cache's
// internal mutex is the only synchronization point).
//
// Durability mirrors the shuffle run format's contract: truncation or
// corruption anywhere — shard payloads, footers, the dictionary, the
// manifest inventory — surfaces as an error wrapping ErrCorrupt or
// extsort.ErrCorruptRun, never as silently wrong counts.
package index

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// FormatVersion identifies the index directory layout. Writers produce
// only this version; Open also reads format 1, which kept the
// manifest's CRC in a sidecar file (see WriteManifest), and rejects any
// other.
const FormatVersion = 2

// File names within an index directory.
const (
	ManifestFile   = "MANIFEST.json"
	DictionaryFile = "dictionary.tsv"
	TopFile        = "top.run"
)

// ErrCorrupt is wrapped by every error reported for a malformed,
// truncated, or inconsistent index. Shard-level damage may instead
// surface as extsort.ErrCorruptRun from the run format's own checks;
// callers should treat either as "this index cannot be trusted".
var ErrCorrupt = errors.New("index: corrupt index")

// ErrClosed is reported by queries issued after Close. In-flight
// queries at the time of Close complete normally (the shard files stay
// open until the last one drains); only newly started queries fail.
var ErrClosed = errors.New("index: index closed")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// manifest is the serialized form of MANIFEST.json.
type manifest struct {
	Version     int              `json:"version"`
	Corpus      string           `json:"corpus"`
	Kind        int              `json:"aggregation"`
	Records     int64            `json:"records"`
	Jobs        int              `json:"jobs,omitempty"`
	WallclockNS int64            `json:"wallclock_ns,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	// Docs, MaxLength, MinFrequency, and Selection snapshot the producing
	// computation (document count, σ, τ, and the selection mode as an
	// integer). They are what LSM chain maintenance needs to decide
	// whether an index is appendable: deltas merge losslessly only when
	// every generation was computed with τ = 1 and no maximal/closed
	// selection, over a known document count. Absent (zero) in indexes
	// written before these fields existed, which therefore cannot be
	// adopted as chain bases.
	Docs         int64 `json:"docs,omitempty"`
	MaxLength    int   `json:"max_length,omitempty"`
	MinFrequency int64 `json:"min_frequency,omitempty"`
	Selection    int   `json:"selection,omitempty"`
	// DictUnranked marks a dictionary whose identifiers are not in
	// non-increasing frequency order (an LSM delta's seeded dictionary);
	// the reader then skips Load's rank verification.
	DictUnranked bool        `json:"dict_unranked,omitempty"`
	Dict         fileInfo    `json:"dictionary"`
	Shards       []shardInfo `json:"shards"`
	Top          *fileInfo   `json:"top,omitempty"`
}

// fileInfo inventories one file of the index so Open can detect
// truncation or substitution before serving from it.
type fileInfo struct {
	File    string `json:"file"`
	Bytes   int64  `json:"bytes"`
	Records int64  `json:"records"`
	// CRC is the CRC-32C of the whole file. It is set (non-zero size
	// implies verified) only for the dictionary: shard files carry
	// per-block and footer checksums of their own, verified lazily as
	// blocks are read.
	CRC uint32 `json:"crc32c,omitempty"`
}

// shardInfo inventories one sorted shard and its key range. Keys are
// raw encoded-sequence bytes (base64 in JSON).
type shardInfo struct {
	fileInfo
	FirstKey []byte `json:"first_key"`
	LastKey  []byte `json:"last_key"`
}
