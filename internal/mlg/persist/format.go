// Package persist implements the MLGP world-save format: a versioned,
// checksummed container of length-prefixed sections, written atomically so a
// crash at any byte never leaves a torn "latest" snapshot. The package is
// deliberately below world/sim/entity/server in the import graph — it knows
// framing and files, not game state; each subsystem contributes its section
// payload through its own persist codec and the server composes them.
package persist

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Format constants. Version bumps when the header or section semantics
// change incompatibly; adding new section IDs does not bump it, because
// readers skip sections they do not recognise via the length prefix.
const (
	Magic = 0x4D4C4750 // "MLGP"
	// Version 2: the entity section carries each entity's spawn seed key
	// (shard-independent RNG identity) after its wander cooldown.
	// Version 3: the sim section drops the engine RNG state and the entity
	// section drops its parallel-scheduling attribution.
	FormatVersion = 3
)

// Kind distinguishes full snapshots from incrementals layered on a base.
type Kind uint8

const (
	// KindFull is a self-contained snapshot.
	KindFull Kind = 1
	// KindIncremental holds only chunks changed since the base full
	// snapshot (BaseTick); sim/entity/server sections are always complete.
	KindIncremental Kind = 2
)

// Well-known section IDs. Unknown IDs decode fine and are skipped by
// consumers, so future writers can add sections without breaking old
// readers.
const (
	SectionWorld      uint32 = 1 // full chunk set + world counters
	SectionWorldDelta uint32 = 2 // changed chunks relative to the base full
	SectionSim        uint32 = 3 // engine tick, RNG, schedule, queues
	SectionEntities   uint32 = 4 // entity store state
	SectionServer     uint32 = 5 // players, inbox, net totals
)

// Typed decode errors. Everything Decode can reject wraps ErrCorrupt, so a
// caller deciding "fall back to an older file?" matches one sentinel;
// the finer-grained ones describe what was wrong.
var (
	ErrCorrupt   = errors.New("persist: corrupt snapshot")
	ErrBadMagic  = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrVersion   = fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	ErrChecksum  = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	ErrTruncated = fmt.Errorf("%w: truncated", ErrCorrupt)
)

// Section is one length-prefixed, checksummed payload inside a snapshot.
type Section struct {
	ID      uint32
	Payload []byte
}

// Snapshot is the decoded form of one MLGP file.
type Snapshot struct {
	Kind     Kind
	Tick     int64 // simulation tick the state was captured at
	BaseTick int64 // for incrementals: tick of the base full snapshot
	Sections []Section
}

// Section returns the payload of the first section with the given ID, or
// nil if the snapshot has none.
func (s *Snapshot) Section(id uint32) []byte {
	for i := range s.Sections {
		if s.Sections[i].ID == id {
			return s.Sections[i].Payload
		}
	}
	return nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// headerSize is magic + version + kind + tick + baseTick + nSections.
const headerSize = 4 + 4 + 1 + 8 + 8 + 4

// Encode serialises the snapshot:
//
//	u32 magic "MLGP" | u32 version | u8 kind | i64 tick | i64 baseTick |
//	u32 nSections | u64 fnv1a(header bytes above)
//	then per section: u32 id | u64 len | payload | u64 fnv1a(payload)
//
// The header checksum catches torn or bit-flipped prefixes before any
// section length is trusted; each section carries its own checksum so a
// flip anywhere in the file is detected.
func Encode(s *Snapshot) []byte {
	n := headerSize + 8
	for i := range s.Sections {
		n += 4 + 8 + len(s.Sections[i].Payload) + 8
	}
	dst := make([]byte, 0, n)
	dst = AppendU32(dst, Magic)
	dst = AppendU32(dst, FormatVersion)
	dst = AppendU8(dst, byte(s.Kind))
	dst = AppendI64(dst, s.Tick)
	dst = AppendI64(dst, s.BaseTick)
	dst = AppendU32(dst, uint32(len(s.Sections)))
	dst = AppendU64(dst, checksum(dst[:headerSize]))
	for i := range s.Sections {
		sec := &s.Sections[i]
		dst = AppendU32(dst, sec.ID)
		dst = AppendU64(dst, uint64(len(sec.Payload)))
		dst = append(dst, sec.Payload...)
		dst = AppendU64(dst, checksum(sec.Payload))
	}
	return dst
}

// Decode parses and verifies an MLGP byte stream. It returns a typed error
// (wrapping ErrCorrupt) for any malformed input — truncation, bit flips,
// bad counts — and never panics; FuzzSnapshotDecode holds it to that.
// Section payloads alias data.
func Decode(data []byte) (*Snapshot, error) {
	d := NewDec(data)
	if d.U32() != Magic {
		if d.Err() != nil {
			return nil, ErrTruncated
		}
		return nil, ErrBadMagic
	}
	if v := d.U32(); d.Err() == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d, reader supports %d", ErrVersion, v, FormatVersion)
	}
	s := &Snapshot{}
	s.Kind = Kind(d.U8())
	s.Tick = d.I64()
	s.BaseTick = d.I64()
	nSec := int(d.U32())
	if sum := d.U64(); d.Err() == nil && sum != checksum(data[:headerSize]) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if s.Kind != KindFull && s.Kind != KindIncremental {
		return nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrCorrupt, s.Kind)
	}
	// Each section costs at least id+len+checksum bytes.
	if nSec > d.Remaining()/(4+8+8) {
		return nil, ErrTruncated
	}
	s.Sections = make([]Section, 0, nSec)
	for i := 0; i < nSec; i++ {
		id := d.U32()
		plen := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if plen > uint64(d.Remaining()) {
			return nil, ErrTruncated
		}
		payload := d.take(int(plen))
		sum := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if sum != checksum(payload) {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, id)
		}
		s.Sections = append(s.Sections, Section{ID: id, Payload: payload})
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return s, nil
}
