package index

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"time"
)

// A manifest (MANIFEST.json, or an LSM chain's CHAIN.json) carries its
// own CRC-32C as its first field, `{\n  "crc32c": "1a2b3c4d",\n  ...`:
// eight lowercase hex digits, the CRC of the whole file as written with
// those digits set to "00000000". The reader checks the exact leading
// bytes and compares the digits as text, never a re-encoding —
// encoding/json matches keys case-insensitively. Format 1 kept the CRC
// in a sidecar (MANIFEST.crc32c, CHAIN.crc32c) of "%08x" lines, two
// while a commit swapped manifests; a file without the leading field is
// read as format 1 only when its sidecar exists.
const crcHead = "{\n  \"crc32c\": \""

// crcDigitsAt is the offset of the CRC's eight hex digits.
const crcDigitsAt = len(crcHead)

// WriteManifest commits v as the JSON manifest at path with one rename
// of a temp file, so readers see the old manifest or the new one. A
// format-1 sidecar beside path is removed, best-effort, afterwards.
func WriteManifest(path string, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(body, []byte("{\n  ")) {
		return fmt.Errorf("index: manifest %s encodes as no JSON object with fields", path)
	}
	data := append([]byte(crcHead+"00000000\",\n  "), body[len("{\n  "):]...)
	data = append(data, '\n')
	copy(data[crcDigitsAt:], crcDigits(crc32.Checksum(data, crcTable)))
	if err := writeFileAtomic(path, data); err != nil {
		return err
	}
	os.Remove(V1Sidecar(path))
	return nil
}

// writeFileAtomic writes data under path via a temp file and a rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o666)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadManifest reads the manifest at path, verifies its CRC and parses
// it into v. It reports whether the manifest is format 1, for the
// caller's version check, and the mtime of the file read. A missing
// manifest fails wrapping fs.ErrNotExist; a bad one wraps corrupt.
func ReadManifest(path string, v any, corrupt error) (v1 bool, mtime time.Time, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, time.Time{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, time.Time{}, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return false, time.Time{}, err
	}
	if len(data) >= crcDigitsAt+8 && string(data[:crcDigitsAt]) == crcHead {
		crc := crc32.Update(0, crcTable, data[:crcDigitsAt])
		crc = crc32.Update(crc, crcTable, []byte("00000000"))
		crc = crc32.Update(crc, crcTable, data[crcDigitsAt+8:])
		if !bytes.Equal(data[crcDigitsAt:crcDigitsAt+8], crcDigits(crc)) {
			return false, time.Time{}, fmt.Errorf("%w: %s checksum mismatch", corrupt, path)
		}
	} else {
		sidecar, err := os.ReadFile(V1Sidecar(path))
		if err != nil {
			return false, time.Time{}, fmt.Errorf("%w: %s has no checksum field and no format-1 checksum file", corrupt, path)
		}
		if !v1CRCMatches(sidecar, crc32.Checksum(data, crcTable)) {
			return false, time.Time{}, fmt.Errorf("%w: %s checksum mismatch", corrupt, path)
		}
		v1 = true
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, time.Time{}, fmt.Errorf("%w: parse %s: %v", corrupt, path, err)
	}
	return v1, st.ModTime(), nil
}

// crcDigits renders crc as the eight lowercase hex digits a manifest
// carries.
func crcDigits(crc uint32) []byte { return fmt.Appendf(nil, "%08x", crc) }

// V1Sidecar names the format-1 checksum file of the manifest at path:
// MANIFEST.crc32c for MANIFEST.json, CHAIN.crc32c for CHAIN.json.
func V1Sidecar(path string) string {
	return strings.TrimSuffix(path, ".json") + ".crc32c"
}

// v1CRCMatches reports whether any complete (newline-terminated) line
// of a format-1 checksum file is exactly the %08x rendering of crc. A
// final unterminated fragment never matches, so truncation anywhere in
// the file is detected.
func v1CRCMatches(sidecar []byte, crc uint32) bool {
	digits := crcDigits(crc)
	for {
		line, rest, ok := bytes.Cut(sidecar, []byte("\n"))
		if !ok {
			return false
		}
		if bytes.Equal(line, digits) {
			return true
		}
		sidecar = rest
	}
}
