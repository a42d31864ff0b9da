package corpus

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ngramstats/internal/dictionary"
	"ngramstats/internal/encoding"
)

// shardMagic identifies corpus shard files.
var shardMagic = []byte("NGSHARD1")

// dictFileName is the dictionary file within a corpus directory, "kept
// as a single text file" per Section VII-B.
const dictFileName = "dictionary.tsv"

// WriteShards persists the collection into dir as the dictionary file
// plus n binary shard files of (docID, payload) records, mirroring the
// paper's layout ("documents are spread as key-value pairs … over a
// total of 256 binary files").
func WriteShards(c *Collection, dir string, n int) error {
	if n < 1 {
		n = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if c.Dict != nil {
		f, err := os.Create(filepath.Join(dir, dictFileName))
		if err != nil {
			return err
		}
		if err := c.Dict.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	writers := make([]*bufio.Writer, n)
	files := make([]*os.File, n)
	for i := 0; i < n; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("shard-%05d.bin", i)))
		if err != nil {
			return err
		}
		files[i] = f
		writers[i] = bufio.NewWriterSize(f, 256<<10)
		if _, err := writers[i].Write(shardMagic); err != nil {
			return err
		}
	}
	for i := range c.Docs {
		d := &c.Docs[i]
		w := writers[int(d.ID)%n]
		if err := encoding.WriteRecord(w, EncodeDocKey(d.ID), EncodeDocValue(d)); err != nil {
			return err
		}
	}
	for i := range writers {
		if err := writers[i].Flush(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	return nil
}

// ReadShards loads a collection persisted by WriteShards. Documents are
// ordered by identifier.
func ReadShards(name, dir string) (*Collection, error) {
	c := &Collection{Name: name}
	dictPath := filepath.Join(dir, dictFileName)
	if f, err := os.Open(dictPath); err == nil {
		d, err := dictionary.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("corpus: load dictionary: %w", err)
		}
		c.Dict = d
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no shard files in %s", dir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := readShard(c, path); err != nil {
			return nil, fmt.Errorf("corpus: shard %s: %w", path, err)
		}
	}
	sort.Slice(c.Docs, func(i, j int) bool { return c.Docs[i].ID < c.Docs[j].ID })
	return c, nil
}

func readShard(c *Collection, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	magic := make([]byte, len(shardMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("read magic: %w", err)
	}
	if !bytes.Equal(magic, shardMagic) {
		return fmt.Errorf("bad magic %q", magic)
	}
	rr := encoding.NewRecordReader(br)
	for {
		k, v, err := rr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		id, err := DecodeDocKey(k)
		if err != nil {
			return err
		}
		doc, err := DecodeDocValue(v)
		if err != nil {
			return err
		}
		doc.ID = id
		c.Docs = append(c.Docs, *doc)
	}
}
