package entity

// Entity wire snapshots: a compact, canonical serialization of one entity's
// externally visible state (identity, kind, motion, lifecycle). The
// equivalence suites hash and diff whole-store snapshots to prove twin runs
// bit-identical, and the FuzzEntitySnapshot round-trip target guards the
// codec itself.
//
// The format is fixed-width big-endian: ID (8), Kind (1), flags (1),
// Pos/Vel (6 × 8, IEEE-754 bits — preserved exactly, so NaN payloads round
// trip), Age (8), Fuse (8), ItemType (1) — snapshotSize bytes per entity.

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/mlg/world"
)

// snapshotSize is the wire size of one entity snapshot.
const snapshotSize = 8 + 1 + 1 + 6*8 + 8 + 8 + 1

const (
	snapFlagOnGround = 1 << 0
	snapFlagDead     = 1 << 1
)

// ErrSnapshotTruncated reports a snapshot shorter than one record;
// ErrSnapshotInvalid reports a record whose fields cannot describe an
// entity.
var (
	ErrSnapshotTruncated = errors.New("entity: truncated snapshot")
	ErrSnapshotInvalid   = errors.New("entity: invalid snapshot field")
)

// AppendSnapshot appends e's wire snapshot to dst and returns the extended
// slice.
func AppendSnapshot(dst []byte, e *Entity) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.ID))
	dst = append(dst, byte(e.Kind))
	var flags byte
	if e.OnGround {
		flags |= snapFlagOnGround
	}
	if e.Dead {
		flags |= snapFlagDead
	}
	dst = append(dst, flags)
	for _, v := range [6]float64{e.Pos.X, e.Pos.Y, e.Pos.Z, e.Vel.X, e.Vel.Y, e.Vel.Z} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(e.Age)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(e.Fuse)))
	dst = append(dst, byte(e.ItemType))
	return dst
}

// DecodeSnapshot parses one entity snapshot from src, returning the decoded
// entity and the remaining bytes.
func DecodeSnapshot(src []byte) (Entity, []byte, error) {
	if len(src) < snapshotSize {
		return Entity{}, src, ErrSnapshotTruncated
	}
	var e Entity
	e.ID = int64(binary.BigEndian.Uint64(src))
	kind := src[8]
	if kind > byte(PrimedTNT) {
		return Entity{}, src, ErrSnapshotInvalid
	}
	e.Kind = Type(kind)
	flags := src[9]
	if flags&^(snapFlagOnGround|snapFlagDead) != 0 {
		return Entity{}, src, ErrSnapshotInvalid
	}
	e.OnGround = flags&snapFlagOnGround != 0
	e.Dead = flags&snapFlagDead != 0
	fs := src[10:]
	vals := [6]float64{}
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(fs[i*8:]))
	}
	e.Pos = Vec3{X: vals[0], Y: vals[1], Z: vals[2]}
	e.Vel = Vec3{X: vals[3], Y: vals[4], Z: vals[5]}
	e.Age = int(int64(binary.BigEndian.Uint64(src[58:])))
	e.Fuse = int(int64(binary.BigEndian.Uint64(src[66:])))
	e.ItemType = world.BlockID(src[74])
	return e, src[snapshotSize:], nil
}

// AppendStateSnapshot appends the wire snapshot of every live entity in
// deterministic (ID) order — the whole-store state fingerprint the
// equivalence suites compare between twin runs.
func (ew *World) AppendStateSnapshot(dst []byte) []byte {
	for _, e := range ew.list {
		dst = AppendSnapshot(dst, e)
	}
	return dst
}
