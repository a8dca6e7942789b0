package taintmap

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzConn feeds a fixed byte stream to ServeConn and captures
// everything the server writes back.
type fuzzConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// taggedReq builds one tagged request frame.
func taggedReq(op byte, tag uint32, payload []byte) []byte {
	b := []byte{op}
	b = binary.BigEndian.AppendUint32(b, tag)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// untaggedReq builds one frame in the retired untagged shape (op byte,
// 4-byte length, payload), which the server must reject as malformed.
func untaggedReq(op byte, payload []byte) []byte {
	b := []byte{op}
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// FuzzServeConn feeds arbitrary byte streams to the protocol parser —
// well-formed frames, frames in the retired untagged shape, truncations
// and trailing garbage — and asserts the server never panics and that
// everything it writes back is a stream of complete, well-formed
// response frames (the flush-on-exit guarantee).
func FuzzServeConn(f *testing.F) {
	f.Add(untaggedReq('R', []byte("blob")))
	f.Add(untaggedReq('L', []byte{0, 0, 0, 1}))
	f.Add(untaggedReq('S', nil))
	f.Add(taggedReq(opRegister, 7, []byte("blob")))
	f.Add(taggedReq(opLookupBatch, 9, []byte{0, 0, 0, 1, 0, 0, 0, 2}))
	f.Add(append(untaggedReq('R', []byte("a")), taggedReq(opLookup, 3, []byte{0, 0, 0, 1})...))
	// Truncated frames: header cut short, payload cut short.
	f.Add([]byte{'R', 0, 0})
	f.Add([]byte{opRegister, 0, 0, 0, 1, 0, 0, 0, 9, 'x'})
	// Trailing garbage after a valid frame.
	f.Add(append(untaggedReq('S', nil), 0xDE, 0xAD, 0xBE, 0xEF))
	// Oversized length field and unknown op.
	f.Add([]byte{'L', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(untaggedReq('Z', []byte("???")))
	f.Add(untaggedReq('B', []byte{0, 0, 0, 2, 0, 0, 0, 1, 'a'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore()
		conn := &fuzzConn{r: bytes.NewReader(data)}
		_ = ServeConn(store, conn) // must terminate without panicking

		checkResponses(t, conn.w.Bytes())
	})
}

// checkResponses asserts that every byte of out belongs to a complete,
// well-formed response frame: a 9-byte header with status OK or error,
// then a payload of the announced length.
func checkResponses(t *testing.T, out []byte) {
	t.Helper()
	for len(out) > 0 {
		if out[0] != statusOK && out[0] != statusErr {
			t.Fatalf("response starts with status %d", out[0])
		}
		if len(out) < 9 {
			t.Fatalf("truncated response header: % x", out)
		}
		n := binary.BigEndian.Uint32(out[5:9])
		if n > maxReplyFrame {
			t.Fatalf("response frame of %d bytes", n)
		}
		if len(out) < 9+int(n) {
			t.Fatalf("truncated response payload: want %d, have %d", n, len(out)-9)
		}
		out = out[9+int(n):]
	}
}

// FuzzParseBlobList throws random bytes at the blob-list parser: it
// must never panic, and anything it accepts must re-encode to exactly
// the input (the encoding is canonical and trailing garbage is
// rejected).
func FuzzParseBlobList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add(appendBlobList(nil, [][]byte{[]byte("a"), []byte("bc"), nil}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 5, 'x'})                   // truncated entry
	f.Add(append(appendBlobList(nil, [][]byte{[]byte("a")}), 0)) // trailing garbage
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})            // absurd count
	f.Add([]byte{0, 0})                                          // short header

	f.Fuzz(func(t *testing.T, data []byte) {
		blobs, err := parseBlobList(data)
		if err != nil {
			return
		}
		re := appendBlobList(nil, blobs)
		if !bytes.Equal(re, data) {
			t.Fatalf("parse/encode not canonical:\n in  % x\n out % x", data, re)
		}
		// The id-list parser shares the same hardening contract.
		if ids, err := parseIDList(data); err == nil {
			if !bytes.Equal(appendIDList(nil, ids), data) {
				t.Fatal("id list parse/encode not canonical")
			}
		}
	})
}
