// Package buildstore is the persistent, content-addressed store for
// compiled MCFI artifacts. MCFI compiles and instruments modules
// separately and composes them at link/update time (paper §4, §6),
// which makes a compiled artifact a natural content-addressed object:
// its key is toolchain.Builder.Fingerprint — a SHA-256 over the build
// flavor and every source — and the build pipeline is deterministic,
// so equal keys mean interchangeable artifacts.
//
// Two tiers compose behind a Tiered front end, checked in order:
//
//	mem  — in-process LRU of decoded images (the old server
//	       BuildCache, minus singleflight, which moved to Tiered)
//	disk — on-disk CAS: sealed blobs + an index journal, published
//	       by atomic rename, hash-verified on every read
//
// A disk hit is backfilled into mem, so a mcfi-serve restart against a
// warm disk store serves its first jobs without recompiling anything.
// Every artifact comes from this process's own compiler or from its own
// disk tier; the store takes no bytes from another machine.
package buildstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"mcfi/internal/linker"
)

// Tier names which store level satisfied a lookup. Job results carry
// it so clients can see where their build came from.
type Tier string

// Tiers, cheapest first; TierBuilt means no tier had it and the
// artifact was compiled from source.
const (
	TierMem   Tier = "mem"
	TierDisk  Tier = "disk"
	TierBuilt Tier = "built"
)

// ErrNotFound reports a key absent from a store. The disk tier also
// returns it (after quarantining the entry) when stored bytes fail hash
// re-verification, so corruption surfaces as a rebuild, never as
// executing a torn image.
var ErrNotFound = errors.New("buildstore: not found")

// Stats is a point-in-time view of one tier.
type Stats struct {
	Tier    string `json:"tier"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Puts    int64  `json:"puts"`
	// Corrupt counts disk entries that failed hash re-verification on
	// read and were quarantined.
	Corrupt int64 `json:"corrupt,omitempty"`
}

// Blob envelope: every payload at rest is sealed as
//
//	magic   "MCFS"    4 bytes
//	version u32       currently 1
//	sum     32 bytes  SHA-256 of payload
//	length  u64       payload length
//	payload
//
// Open re-verifies the hash, so truncation and bit flips anywhere in a
// stored entry are detected before anything decodes — a corrupt image
// is rebuilt rather than executed.

const (
	blobMagic   = "MCFS"
	blobVersion = 1
	blobHdrLen  = 4 + 4 + sha256.Size + 8
)

// maxBlobBytes bounds a stored payload (64 MiB — far above any linked
// image or libc object), so a read never allocates for an oversized
// file it would refuse anyway.
const maxBlobBytes = 64 << 20

// Seal wraps a payload in the integrity envelope.
func Seal(payload []byte) []byte {
	out := make([]byte, blobHdrLen, blobHdrLen+len(payload))
	copy(out, blobMagic)
	binary.LittleEndian.PutUint32(out[4:], blobVersion)
	sum := sha256.Sum256(payload)
	copy(out[8:], sum[:])
	binary.LittleEndian.PutUint64(out[8+sha256.Size:], uint64(len(payload)))
	return append(out, payload...)
}

// Open unwraps a sealed blob, verifying length and hash.
func Open(envelope []byte) ([]byte, error) {
	if len(envelope) < blobHdrLen || string(envelope[:4]) != blobMagic {
		return nil, fmt.Errorf("buildstore: bad blob magic")
	}
	if v := binary.LittleEndian.Uint32(envelope[4:]); v != blobVersion {
		return nil, fmt.Errorf("buildstore: unsupported blob version %d", v)
	}
	want := envelope[8 : 8+sha256.Size]
	n := binary.LittleEndian.Uint64(envelope[8+sha256.Size:])
	payload := envelope[blobHdrLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("buildstore: blob truncated (%d of %d payload bytes)", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(want) {
		return nil, fmt.Errorf("buildstore: blob hash mismatch")
	}
	return payload, nil
}

// ValidKey reports whether key is a well-formed content address (a
// lowercase hex SHA-256). Stores reject anything else: keys become
// file names, so this is also the traversal guard.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

var errBadKey = errors.New("buildstore: malformed key (want lowercase hex sha-256)")

// HashKey returns the content address of raw key material — a helper
// for callers that key artifacts by something other than a builder
// fingerprint (e.g. per-flavor libc objects).
func HashKey(material string) string {
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

func encodeImage(img *linker.Image) ([]byte, error) {
	return img.MarshalBinary()
}

func decodeImage(payload []byte) (*linker.Image, error) {
	return linker.UnmarshalImage(payload)
}
