package buildstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"mcfi/internal/linker"
)

// Disk is the persistent tier: a content-addressed store of sealed
// blobs on the local filesystem, safe to share between processes.
//
//	<dir>/objects/<key[:2]>/<key>   sealed blob (Seal envelope)
//	<dir>/index.jsonl               append-only publish journal
//
// Publishing is atomic: a blob is written to a temp file in its final
// directory and renamed into place, so a reader never observes a
// partial entry and two processes publishing the same key concurrently
// converge on one complete file (the builds are deterministic, so both
// bodies are identical — last rename wins harmlessly). Reads re-verify
// the envelope hash; an entry that fails (truncated, bit-flipped) is
// quarantined (removed) and reported as ErrNotFound so the caller
// rebuilds instead of executing corrupt code.
//
// The index journal is an optimization, never an authority: Get falls
// through to the filesystem on an index miss (another process may have
// published since we opened), and entries whose files have vanished
// are dropped when loaded. A missing journal is rebuilt by walking the
// object directory.
type Disk struct {
	dir string

	mu     sync.Mutex
	index  map[string]int64 // key -> payload size
	bytes  int64
	indexF *os.File // O_APPEND journal handle
	closed bool

	hits, misses, puts, corrupt atomic.Int64
}

// OpenDisk opens (creating if needed) an on-disk store rooted at dir.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("buildstore: %w", err)
	}
	d := &Disk{dir: dir, index: map[string]int64{}}
	if err := d.loadIndex(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(d.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("buildstore: %w", err)
	}
	d.indexF = f
	return d, nil
}

func (d *Disk) indexPath() string { return filepath.Join(d.dir, "index.jsonl") }

func (d *Disk) blobPath(key string) string {
	return filepath.Join(d.dir, "objects", key[:2], key)
}

type indexLine struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// loadIndex populates the in-memory index from the journal, dropping
// entries whose blob files are gone; with no journal it rebuilds by
// walking the object directory.
func (d *Disk) loadIndex() error {
	f, err := os.Open(d.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return d.rebuildIndex()
		}
		return fmt.Errorf("buildstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var il indexLine
		// A torn concurrent append can leave one malformed line; skip it
		// (the entry is still findable via the filesystem fallback).
		if json.Unmarshal([]byte(line), &il) != nil || !ValidKey(il.Key) {
			continue
		}
		if _, err := os.Stat(d.blobPath(il.Key)); err != nil {
			delete(d.index, il.Key)
			continue
		}
		if old, ok := d.index[il.Key]; ok {
			d.bytes -= old
		}
		d.index[il.Key] = il.Size
		d.bytes += il.Size
	}
	return sc.Err()
}

// rebuildIndex scans objects/ and rewrites the journal.
func (d *Disk) rebuildIndex() error {
	root := filepath.Join(d.dir, "objects")
	subs, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("buildstore: %w", err)
	}
	var lines []byte
	for _, sub := range subs {
		if !sub.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, sub.Name()))
		if err != nil {
			continue
		}
		for _, fi := range files {
			key := fi.Name()
			if !ValidKey(key) {
				continue // temp file or stray
			}
			info, err := fi.Info()
			if err != nil {
				continue
			}
			size := info.Size() - blobHdrLen
			if size < 0 {
				size = 0
			}
			d.index[key] = size
			d.bytes += size
			b, _ := json.Marshal(indexLine{Key: key, Size: size})
			lines = append(lines, append(b, '\n')...)
		}
	}
	if len(lines) > 0 {
		if err := os.WriteFile(d.indexPath(), lines, 0o644); err != nil {
			return fmt.Errorf("buildstore: %w", err)
		}
	}
	return nil
}

// GetBlob reads and verifies the payload stored under key. Corrupt
// entries are quarantined and reported as ErrNotFound.
func (d *Disk) GetBlob(key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, errBadKey
	}
	env, err := readBounded(d.blobPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			d.misses.Add(1)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("buildstore: %w", err)
	}
	payload, err := Open(env)
	if err != nil {
		// Oversized, truncated or bit-flipped at rest: quarantine so the
		// next lookup rebuilds, and never hand corrupt bytes to a decoder.
		d.misses.Add(1)
		d.quarantine(key)
		return nil, ErrNotFound
	}
	d.hits.Add(1)
	d.noteEntry(key, int64(len(payload)), false)
	return payload, nil
}

// readBounded reads a blob file, or returns nil (which Open refuses)
// without reading it when it is larger than any blob PutBlob writes.
func readBounded(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxBlobBytes+blobHdrLen {
		return nil, nil
	}
	env := make([]byte, fi.Size())
	n, err := io.ReadFull(f, env)
	if err == io.ErrUnexpectedEOF {
		err = nil // shrank since Stat: Open reports the truncation
	}
	return env[:n], err
}

// quarantine removes a bad entry — corrupt envelope or undecodable
// payload — and drops it from the index so Has stops advertising it
// and Stats entries/bytes stay truthful without a journal reload.
func (d *Disk) quarantine(key string) {
	d.corrupt.Add(1)
	os.Remove(d.blobPath(key))
	d.mu.Lock()
	if old, ok := d.index[key]; ok {
		d.bytes -= old
		delete(d.index, key)
	}
	d.mu.Unlock()
}

// PutBlob seals and publishes a payload under key with an atomic
// rename, then journals the entry.
func (d *Disk) PutBlob(key string, payload []byte) error {
	if !ValidKey(key) {
		return errBadKey
	}
	if len(payload) > maxBlobBytes {
		return fmt.Errorf("buildstore: %d-byte payload exceeds the %d-byte bound", len(payload), maxBlobBytes)
	}
	d.puts.Add(1)
	path := d.blobPath(key)
	if _, err := os.Stat(path); err == nil {
		// Already published (by us or a peer process); contents are
		// deterministic per key, so keep the existing file.
		d.noteEntry(key, int64(len(payload)), false)
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("buildstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+key[:8]+"-*")
	if err != nil {
		return fmt.Errorf("buildstore: %w", err)
	}
	_, werr := tmp.Write(Seal(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("buildstore: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("buildstore: %w", err)
	}
	d.noteEntry(key, int64(len(payload)), true)
	return nil
}

// Has reports whether key is present (index first, then the
// filesystem, so cross-process publishes are visible).
func (d *Disk) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	d.mu.Lock()
	_, ok := d.index[key]
	d.mu.Unlock()
	if ok {
		return true
	}
	_, err := os.Stat(d.blobPath(key))
	return err == nil
}

// noteEntry records key in the in-memory index and, if journal is set,
// appends it to the journal (one JSON line per publish; O_APPEND keeps
// concurrent writers from interleaving partial lines in practice —
// and a torn line is skipped on load anyway).
func (d *Disk) noteEntry(key string, size int64, journal bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.index[key]; ok {
		d.bytes -= old
	} else if journal && d.indexF != nil && !d.closed {
		b, _ := json.Marshal(indexLine{Key: key, Size: size})
		d.indexF.Write(append(b, '\n'))
	}
	d.index[key] = size
	d.bytes += size
}

// Get retrieves and decodes an image.
func (d *Disk) Get(key string) (*linker.Image, error) {
	payload, err := d.GetBlob(key)
	if err != nil {
		return nil, err
	}
	img, err := decodeImage(payload)
	if err != nil {
		// The envelope verified but the payload does not decode (e.g. a
		// format-version rollover): treat as absent so it is rebuilt and
		// republished in the current format.
		d.quarantine(key)
		return nil, ErrNotFound
	}
	return img, nil
}

// Put encodes, seals, and publishes an image.
func (d *Disk) Put(key string, img *linker.Image) error {
	payload, err := encodeImage(img)
	if err != nil {
		return err
	}
	return d.PutBlob(key, payload)
}

// Stats snapshots the tier.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	n, b := len(d.index), d.bytes
	d.mu.Unlock()
	return Stats{
		Tier: string(TierDisk), Entries: n, Bytes: b,
		Hits: d.hits.Load(), Misses: d.misses.Load(),
		Puts: d.puts.Load(), Corrupt: d.corrupt.Load(),
	}
}

// Close releases the journal handle. The store directory remains valid
// for the next process.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.indexF != nil {
		return d.indexF.Close()
	}
	return nil
}
