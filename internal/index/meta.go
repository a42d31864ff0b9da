package index

import "ngramstats/internal/dictionary"

// Meta is the checksum-verified manifest metadata of an index
// directory, readable without opening its shards. LSM chain
// maintenance uses it to validate that an index qualifies as a chain
// generation (τ = 1, no selection, recorded document count) before
// adopting or extending it.
type Meta struct {
	Corpus       string
	Kind         int
	Records      int64
	Docs         int64
	MaxLength    int
	MinFrequency int64
	Selection    int
	DictUnranked bool
}

// ReadMeta reads an index directory's manifest metadata. The manifest
// checksum is verified; the shard files are not touched.
func ReadMeta(dir string) (Meta, error) {
	man, err := readManifest(dir)
	if err != nil {
		return Meta{}, err
	}
	return Meta{
		Corpus:       man.Corpus,
		Kind:         man.Kind,
		Records:      man.Records,
		Docs:         man.Docs,
		MaxLength:    man.MaxLength,
		MinFrequency: man.MinFrequency,
		Selection:    man.Selection,
		DictUnranked: man.DictUnranked,
	}, nil
}

// OpenDictionary loads only the dictionary of an index directory,
// verified against the manifest's size and checksum and parsed with
// the rank check the manifest calls for. It is how an LSM append seeds
// the next generation's dictionary from the newest one without opening
// the full index.
func OpenDictionary(dir string) (*dictionary.Dictionary, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	return readDictionary(dir, man, true)
}
