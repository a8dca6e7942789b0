package wire

import (
	"encoding/binary"
	"fmt"
)

// Adaptive wire tiers (DESIGN.md §9).
//
// The group codec charges 5x for every byte of a tainted buffer even
// when the taint structure is trivial: a uniformly-labelled bulk
// transfer repeats the same Global ID per byte, and a mostly-clean
// buffer with one tainted island group-encodes the clean majority too.
// Two frame tiers between 'P' and 'G' carry those shapes at
// near-passthrough cost:
//
//   - 'U' (uniform): body = one big-endian Global ID + the raw data
//     bytes; every byte carries that id. GlobalIDLen bytes of overhead
//     per frame instead of per byte.
//   - 'S' (sparse): body = big-endian range count + count 12-byte
//     (offset, length, Global ID) entries + the raw data bytes; bytes
//     outside the listed ranges are untainted. Ranges must be in
//     ascending offset order, non-overlapping, non-empty, non-zero-id
//     and inside the data extent — anything else is stream corruption.
//
// Version marking: a stream that may carry 'U'/'S' frames opens with
// the magic "DTF2" instead of "DTF1". A pre-tier decoder treats an
// unknown fourth magic byte as a legacy raw-group stream, so a DTF2
// sender needs a peer running this decoder. This decoder accepts both
// magics (and all four tags under either) as well as the legacy raw
// group stream, keeping every older sender byte-compatible.

// adaptiveMagic opens a framed stream whose sender may emit the
// uniform/sparse tiers.
var adaptiveMagic = [4]byte{'D', 'T', 'F', '2'}

const (
	// FrameUniform tags a frame whose body is a Global ID plus raw data
	// bytes all carrying that taint.
	FrameUniform byte = 'U'
	// FrameSparse tags a frame whose body is a dirty-range table plus
	// raw data bytes, tainted only inside the listed ranges.
	FrameSparse byte = 'S'
	// SparseRangeLen is the wire width of one dirty-range table entry:
	// uint32 offset + uint32 length + Global ID.
	SparseRangeLen = 12
	// SparseCountLen is the wire width of the sparse range count.
	SparseCountLen = 4
	// MaxSparseRanges bounds the table a decoder accepts; a sender with
	// more dirty runs uses the groups tier instead.
	MaxSparseRanges = 1024
)

// DirtyRange is one tainted island of a mostly-clean payload: Len bytes
// at Off all carrying the taint with the given Global ID.
type DirtyRange struct {
	Off, Len int
	ID       uint32
}

// UniformFrameLen returns the framed size of n uniformly-tainted bytes.
func UniformFrameLen(n int) int { return FrameHeaderLen + GlobalIDLen + n }

// SparseFrameLen returns the framed size of n data bytes with k dirty
// ranges.
func SparseFrameLen(n, k int) int {
	return FrameHeaderLen + SparseCountLen + k*SparseRangeLen + n
}

// AppendAdaptiveStreamMagic appends the tier-capable stream magic.
func AppendAdaptiveStreamMagic(dst []byte) []byte {
	return append(dst, adaptiveMagic[:]...)
}

// AppendUniformHeader appends a uniform frame's header and Global ID —
// everything but the raw data, for senders that write the payload
// out-of-line (the zero-copy uniform send).
func AppendUniformHeader(dst []byte, n int, id uint32) []byte {
	dst = AppendFrameHeader(dst, FrameUniform, GlobalIDLen+n)
	return binary.BigEndian.AppendUint32(dst, id)
}

// AppendUniformFrame appends a whole uniform frame: every byte of data
// carries the taint with the given Global ID.
func AppendUniformFrame(dst, data []byte, id uint32) []byte {
	dst = AppendUniformHeader(dst, len(data), id)
	return append(dst, data...)
}

// AppendSparseHeader appends a sparse frame's header, range count and
// range table — everything but the raw data. ranges must satisfy the
// table invariants for n data bytes (ValidateDirtyRanges).
func AppendSparseHeader(dst []byte, n int, ranges []DirtyRange) []byte {
	dst = AppendFrameHeader(dst, FrameSparse,
		SparseCountLen+len(ranges)*SparseRangeLen+n)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ranges)))
	for _, r := range ranges {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Off))
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Len))
		dst = binary.BigEndian.AppendUint32(dst, r.ID)
	}
	return dst
}

// AppendSparseFrame appends a whole sparse frame for data with its
// dirty ranges.
func AppendSparseFrame(dst, data []byte, ranges []DirtyRange) []byte {
	dst = AppendSparseHeader(dst, len(data), ranges)
	return append(dst, data...)
}

// AppendDirtyRanges converts a full run cover into its dirty ranges
// (skipping untainted runs), appending to dst. The inverse of the
// sparse table's implicit-clean-gap encoding.
func AppendDirtyRanges(dst []DirtyRange, runs []Run) []DirtyRange {
	off := 0
	for _, r := range runs {
		if r.ID != 0 && r.N > 0 {
			dst = append(dst, DirtyRange{Off: off, Len: r.N, ID: r.ID})
		}
		off += r.N
	}
	return dst
}

// ValidateDirtyRanges checks the sparse-table invariants for n data
// bytes: ascending non-overlapping offsets, positive lengths, non-zero
// ids, every range inside [0, n).
func ValidateDirtyRanges(ranges []DirtyRange, n int) error {
	pos := 0
	for _, r := range ranges {
		switch {
		case r.Len <= 0:
			return fmt.Errorf("wire: sparse range at %d has length %d", r.Off, r.Len)
		case r.ID == 0:
			return fmt.Errorf("wire: sparse range at %d carries the untainted id", r.Off)
		case r.Off < pos:
			return fmt.Errorf("wire: sparse range at %d overlaps or reorders (previous end %d)", r.Off, pos)
		case r.Off+r.Len > n:
			return fmt.Errorf("wire: sparse range [%d,%d) exceeds %d data bytes", r.Off, r.Off+r.Len, n)
		}
		pos = r.Off + r.Len
	}
	return nil
}

// rangeRunCover expands a validated dirty-range table into the full run
// cover of n data bytes, clean gaps included, appending to dst.
func rangeRunCover(dst []Run, ranges []DirtyRange, n int) []Run {
	pos := 0
	for _, r := range ranges {
		if r.Off > pos {
			dst = append(dst, Run{N: r.Off - pos})
		}
		dst = append(dst, Run{N: r.Len, ID: r.ID})
		pos = r.Off + r.Len
	}
	if pos < n {
		dst = append(dst, Run{N: n - pos})
	}
	return dst
}

// parseRangeTable decodes and validates a wire range table covering n
// data bytes, returning the dirty ranges. len(table) must be a multiple
// of SparseRangeLen.
func parseRangeTable(table []byte, n int) ([]DirtyRange, error) {
	ranges := make([]DirtyRange, 0, len(table)/SparseRangeLen)
	for i := 0; i+SparseRangeLen <= len(table); i += SparseRangeLen {
		ranges = append(ranges, DirtyRange{
			Off: int(binary.BigEndian.Uint32(table[i:])),
			Len: int(binary.BigEndian.Uint32(table[i+4:])),
			ID:  binary.BigEndian.Uint32(table[i+8:]),
		})
	}
	if err := ValidateDirtyRanges(ranges, n); err != nil {
		return nil, err
	}
	return ranges, nil
}

// Packet codec tiers: a datagram whose payload is uniformly tainted
// travels under the magic "DU" (header + Global ID + raw bytes); a
// mostly-clean one under "DS" (header + range count + table + raw
// bytes). Receivers accept all four magics.

var (
	uniformPacketMagic = [2]byte{'D', 'U'}
	sparsePacketMagic  = [2]byte{'D', 'S'}
)

// EncodePacketUniform wraps one datagram payload every byte of which
// carries the taint with the given Global ID.
func EncodePacketUniform(data []byte, id uint32) []byte {
	out := make([]byte, 0, PacketOverhead+GlobalIDLen+len(data))
	out = append(out, uniformPacketMagic[0], uniformPacketMagic[1])
	out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
	out = binary.BigEndian.AppendUint32(out, id)
	return append(out, data...)
}

// EncodePacketSparse wraps one datagram payload tainted only inside the
// given dirty ranges. The ranges must satisfy ValidateDirtyRanges.
func EncodePacketSparse(data []byte, ranges []DirtyRange) []byte {
	out := make([]byte, 0,
		PacketOverhead+SparseCountLen+len(ranges)*SparseRangeLen+len(data))
	out = append(out, sparsePacketMagic[0], sparsePacketMagic[1])
	out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(ranges)))
	for _, r := range ranges {
		out = binary.BigEndian.AppendUint32(out, uint32(r.Off))
		out = binary.BigEndian.AppendUint32(out, uint32(r.Len))
		out = binary.BigEndian.AppendUint32(out, r.ID)
	}
	return append(out, data...)
}
