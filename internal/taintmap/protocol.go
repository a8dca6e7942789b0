package taintmap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Wire protocol: length-prefixed, tagged frames over any reliable
// stream. Every request carries a client-chosen tag so many requests can
// be in flight on one connection; the response echoes the tag, letting
// a demultiplexing client match replies to concurrent callers in
// arrival order rather than issue order.
//
//	request:  op byte | uint32 tag | uint32 payloadLen | payload
//	response: status byte | uint32 tag | uint32 payloadLen | payload
//
// ops: 'r' register (payload = taint blob, reply = 4-byte id),
//      'l' lookup   (payload = 4-byte id, reply = taint blob),
//      'b' register batch (payload = blob list, reply = 4-byte id per blob),
//      'm' lookup batch   (payload = 4-byte id per entry, reply = blob list),
//      's' stats    (payload empty, reply = 3x uint64).
//
// Response status is 2 (OK) or 3 (error, payload = message). The server
// answers requests of one connection in order, which lets it coalesce
// many small responses into one buffered write. A frame whose op byte is
// not listed here, or whose length exceeds maxFrame, closes the
// connection.
//
// A lookup batch ('m') may return FEWER blobs than requested — always
// at least one — when the full reply would overflow the frame budget;
// the client transparently re-requests the tail.
//
// A blob list is uint32 count followed by count (uint32 len | bytes)
// entries. The batch ops let a node resolve every distinct taint of a
// message in one round trip instead of one per taint (§III-D's Taint
// Map traffic, amortized over runs).

const (
	opRegister      = 'r'
	opLookup        = 'l'
	opRegisterBatch = 'b'
	opLookupBatch   = 'm'
	opStats         = 's'

	// Cluster ops (PR 6), answered only by servers running with a
	// ClusterNode; a standalone server rejects them with an error
	// response, never a dropped connection.
	//
	//	'g' ring     — payload empty, reply = ring snapshot encoding
	//	'j' join     — payload = member encoding, reply = the new ring;
	//	               the receiving node adds the member and gossips the
	//	               join to its peers (idempotent, so gossip converges)
	//	'p' replicate — payload = entry list (id + blob per entry), the
	//	               owner's synchronous push to its successors before
	//	               acking a fresh registration; reply empty
	//	'w' repair   — same payload as replicate: a client that observed a
	//	               replica missing ids it resolved elsewhere pushes the
	//	               entries back (read-repair); reply empty
	opRing      = 'g'
	opJoin      = 'j'
	opReplicate = 'p'
	opRepair    = 'w'

	statusOK  = 2
	statusErr = 3
)

// maxFrame bounds payload sizes to keep a corrupted peer from forcing a
// huge allocation.
const maxFrame = 1 << 20

// maxIDsPerFrame is how many 4-byte ids fit one frame; the clients
// chunk larger id batches transparently.
const maxIDsPerFrame = maxFrame / 4

// maxReplyFrame is the response-side read bound. It exceeds maxFrame by
// a small slack so a batch-lookup reply carrying one maximum-size blob
// (plus the count and length prefixes) still fits.
const maxReplyFrame = maxFrame + 16

// errProtocol reports a malformed frame.
var errProtocol = errors.New("taintmap: protocol error")

// readRequestHeader reads one request header, the framing both the
// serving and the shedding loop use. A frame whose op byte is not a
// protocol op, or whose length exceeds maxFrame, is an errProtocol.
// Read errors pass through unwrapped, so io.EOF still marks a clean
// disconnect. The header is decoded in place in br's buffer, so reading
// it allocates nothing.
func readRequestHeader(br *bufio.Reader) (op byte, tag, n uint32, err error) {
	if op, err = br.ReadByte(); err != nil {
		return 0, 0, 0, err
	}
	switch op {
	case opRegister, opLookup, opRegisterBatch, opLookupBatch, opStats,
		opRing, opJoin, opReplicate, opRepair:
	default:
		return 0, 0, 0, fmt.Errorf("%w: unknown op %q", errProtocol, op)
	}
	hdr, err := br.Peek(8)
	if err != nil {
		return 0, 0, 0, err
	}
	tag = binary.BigEndian.Uint32(hdr[0:4])
	n = binary.BigEndian.Uint32(hdr[4:8])
	br.Discard(8)
	if n > maxFrame {
		return 0, 0, 0, fmt.Errorf("%w: frame of %d bytes", errProtocol, n)
	}
	return op, tag, n, nil
}

// Entry lists carry id->blob pairs for replication and read-repair:
// uint32 count, then per entry uint32 id | uint32 blobLen | blob.

// appendEntry appends one id+blob entry (countless form; the caller
// prepends the count with beginEntries/finishEntries or appendEntries).
func appendEntry(dst []byte, id uint32, blob []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blob)))
	return append(dst, blob...)
}

// appendEntries encodes a parallel ids/blobs pair as an entry list.
func appendEntries(dst []byte, ids []uint32, blobs [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for i, id := range ids {
		dst = appendEntry(dst, id, blobs[i])
	}
	return dst
}

// forEachEntry decodes an entry list, calling fn per entry (blob
// aliases p). It validates every length and rejects trailing bytes,
// and returns the entry count.
func forEachEntry(p []byte, fn func(id uint32, blob []byte) error) (int, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: entry list of %d bytes", errProtocol, len(p))
	}
	count := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	if count > maxFrame/8 {
		return 0, fmt.Errorf("%w: entry list of %d entries", errProtocol, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(p) < 8 {
			return int(i), fmt.Errorf("%w: truncated entry list", errProtocol)
		}
		id := binary.BigEndian.Uint32(p[:4])
		n := binary.BigEndian.Uint32(p[4:8])
		p = p[8:]
		if uint32(len(p)) < n {
			return int(i), fmt.Errorf("%w: truncated entry blob", errProtocol)
		}
		if err := fn(id, p[:n]); err != nil {
			return int(i), err
		}
		p = p[n:]
	}
	if len(p) != 0 {
		return int(count), fmt.Errorf("%w: %d trailing bytes after entry list", errProtocol, len(p))
	}
	return int(count), nil
}

// appendBlobList appends the wire form of a blob list to dst.
func appendBlobList(dst []byte, blobs [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blobs)))
	for _, b := range blobs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// parseBlobList decodes a blob list; the returned slices alias p.
func parseBlobList(p []byte) ([][]byte, error) {
	return parseBlobListInto(nil, p)
}

// parseBlobListInto is parseBlobList reusing dst's backing array, the
// zero-allocation form for the server's per-connection scratch.
func parseBlobListInto(dst [][]byte, p []byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: blob list of %d bytes", errProtocol, len(p))
	}
	count := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	if count > maxFrame/4 {
		return nil, fmt.Errorf("%w: blob list of %d entries", errProtocol, count)
	}
	if cap(dst) < int(count) {
		dst = make([][]byte, count)
	}
	dst = dst[:count]
	for i := range dst {
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: truncated blob list", errProtocol)
		}
		n := binary.BigEndian.Uint32(p[:4])
		p = p[4:]
		if uint32(len(p)) < n {
			return nil, fmt.Errorf("%w: truncated blob list", errProtocol)
		}
		dst[i] = p[:n]
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after blob list", errProtocol, len(p))
	}
	return dst, nil
}

// appendIDList appends each id as 4 big-endian bytes.
func appendIDList(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, id)
	}
	return dst
}

// parseIDList decodes a packed 4-byte-per-entry id list.
func parseIDList(p []byte) ([]uint32, error) {
	return parseIDListInto(nil, p)
}

// parseIDListInto is parseIDList reusing dst's backing array.
func parseIDListInto(dst []uint32, p []byte) ([]uint32, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("%w: id list of %d bytes", errProtocol, len(p))
	}
	n := len(p) / 4
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	return dst, nil
}

// splitBlobChunks splits blobs into consecutive chunks whose encoded
// blob-list payloads each fit in maxFrame, so arbitrarily large batches
// cross the wire as several frames. A single blob too large for one
// frame is an error.
func splitBlobChunks(blobs [][]byte) ([][][]byte, error) {
	total := 4
	start := 0
	var chunks [][][]byte
	for i, b := range blobs {
		need := 4 + len(b)
		if 4+need > maxFrame {
			return nil, fmt.Errorf("%w: blob of %d bytes exceeds max frame", errProtocol, len(b))
		}
		if total+need > maxFrame {
			chunks = append(chunks, blobs[start:i])
			start, total = i, 4
		}
		total += need
	}
	return append(chunks, blobs[start:]), nil
}

// splitIDChunks splits ids into chunks that fit one frame each.
func splitIDChunks(ids []uint32) [][]uint32 {
	if len(ids) <= maxIDsPerFrame {
		return [][]uint32{ids}
	}
	var chunks [][]uint32
	for len(ids) > maxIDsPerFrame {
		chunks = append(chunks, ids[:maxIDsPerFrame])
		ids = ids[maxIDsPerFrame:]
	}
	return append(chunks, ids)
}

// writeFrame writes one frame (request or response — the head byte
// disambiguates) without allocating: the header is appended straight
// into w's free buffer space, then the caller's payload follows. It
// enforces the reply-side bound, maxReplyFrame; request senders hold
// their payloads to maxFrame themselves.
func writeFrame(w *bufio.Writer, head byte, tag uint32, payload []byte) error {
	if len(payload) > maxReplyFrame {
		return fmt.Errorf("%w: frame of %d bytes", errProtocol, len(payload))
	}
	if w.Available() < 9 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := append(w.AvailableBuffer(), head)
	hdr = binary.BigEndian.AppendUint32(hdr, tag)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// connHost is everything one server connection serves requests against:
// the store, optionally the cluster node (nil on standalone servers —
// cluster ops then answer with an error response), and optionally a
// service-cost model the benchmarks install to charge each request a
// modeled processing time (see WithServiceModel).
type connHost struct {
	store *Store
	node  *ClusterNode
	cost  func(op byte, items int)
	adm   *admission // request admission gate; nil = unlimited
}

// charge bills one request to the service model, if any is installed.
// The model sees the op's upper-case letter ('R' register, 'B' register
// batch, 'L'/'M' lookups, 'P'/'W' replicate and repair, ...): the
// request-kind names service models and trace counters key on.
func (h connHost) charge(op byte, items int) {
	if h.cost != nil {
		h.cost(op-'a'+'A', items)
	}
}

// connScratch holds one connection's reusable buffers: after warm-up
// the server serves every frame with zero allocations on the happy
// path.
type connScratch struct {
	payload []byte
	reply   []byte
	ids     []uint32
	blobs   [][]byte
	repl    []byte // entry-list scratch for replicating fresh registrations
}

// grow returns a length-n payload buffer, reusing prior capacity.
func (c *connScratch) grow(n int) []byte {
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	return c.payload
}

// handle serves one request, appending the response payload into the
// scratch reply buffer.
//
// On a clustered host, fresh registrations are pushed to the owner's
// successors *before* the reply is appended: once a client sees an id,
// RF replicas hold its blob (minus hinted-handoff skips on dead peers).
func (c *connScratch) handle(h connHost, op byte, payload []byte) (status byte, reply []byte) {
	store := h.store
	reply = c.reply[:0]
	status = statusOK
	switch op {
	case opRegister:
		id, fresh := store.registerBlob(payload)
		h.charge(op, 1)
		if fresh && h.node != nil {
			c.repl = appendEntries(c.repl[:0], []uint32{id}, [][]byte{payload})
			h.node.replicate(c.repl)
		}
		reply = binary.BigEndian.AppendUint32(reply, id)
	case opLookup:
		if len(payload) != 4 {
			return statusErr, append(reply, "lookup payload must be 4 bytes"...)
		}
		id := binary.BigEndian.Uint32(payload)
		blob, ok := store.lookupStr(id)
		h.charge(op, 1)
		if !ok {
			return statusErr, fmt.Appendf(reply, "%v: %d", ErrUnknownGlobalID, id)
		}
		reply = append(reply, blob...)
	case opRegisterBatch:
		blobs, err := parseBlobListInto(c.blobs[:0], payload)
		if err != nil {
			return statusErr, append(reply, err.Error()...)
		}
		c.blobs = blobs
		c.repl = c.repl[:0]
		freshN := 0
		for _, b := range blobs {
			id, fresh := store.registerBlob(b)
			if fresh && h.node != nil {
				c.repl = appendEntry(c.repl, id, b)
				freshN++
			}
			reply = binary.BigEndian.AppendUint32(reply, id)
		}
		h.charge(op, len(blobs))
		if freshN > 0 {
			// Prepend the entry count the per-entry appends left out.
			c.repl = append(c.repl, 0, 0, 0, 0)
			copy(c.repl[4:], c.repl)
			binary.BigEndian.PutUint32(c.repl[:4], uint32(freshN))
			h.node.replicate(c.repl)
		}
	case opLookupBatch:
		ids, err := parseIDListInto(c.ids[:0], payload)
		if err != nil {
			return statusErr, append(reply, err.Error()...)
		}
		c.ids = ids
		h.charge(op, len(ids))
		reply = binary.BigEndian.AppendUint32(reply, uint32(len(ids)))
		included := 0
		for _, id := range ids {
			blob, ok := store.lookupStr(id)
			if !ok {
				return statusErr, fmt.Appendf(reply[:0], "%v: %d", ErrUnknownGlobalID, id)
			}
			if included > 0 && len(reply)+4+len(blob) > maxFrame {
				// Partial reply: stop before overflowing the frame;
				// the client re-requests the remaining ids.
				break
			}
			reply = binary.BigEndian.AppendUint32(reply, uint32(len(blob)))
			reply = append(reply, blob...)
			included++
		}
		binary.BigEndian.PutUint32(reply[:4], uint32(included))
	case opStats:
		st := store.Stats()
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.GlobalTaints))
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.Registrations))
		reply = binary.BigEndian.AppendUint64(reply, uint64(st.Lookups))
	case opRing:
		if h.node == nil {
			return statusErr, append(reply, "not a cluster member"...)
		}
		reply = appendRing(reply, h.node.Ring())
	case opJoin:
		if h.node == nil {
			return statusErr, append(reply, "not a cluster member"...)
		}
		m, err := parseMember(payload)
		if err != nil {
			return statusErr, append(reply, err.Error()...)
		}
		r, err := h.node.Join(m)
		if err != nil {
			return statusErr, append(reply, err.Error()...)
		}
		reply = appendRing(reply, r)
	case opReplicate, opRepair:
		if h.node == nil {
			return statusErr, append(reply, "not a cluster member"...)
		}
		n, err := forEachEntry(payload, store.AdoptBlob)
		h.charge(op, n)
		if err != nil {
			return statusErr, append(reply, err.Error()...)
		}
		if op == opRepair {
			h.node.repairs.Add(int64(n))
		}
	default:
		return statusErr, fmt.Appendf(reply, "unknown op %q", op)
	}
	return status, reply
}

// ServeConn answers protocol requests on one connection until the peer
// disconnects — the per-connection loop used by Server. Reads are
// buffered, responses are coalesced: the writer is only flushed once no
// further complete request is already buffered, so a pipelining client
// pays one syscall for a burst of replies instead of one per reply.
func ServeConn(store *Store, conn io.ReadWriter) error {
	return serveConn(connHost{store: store}, conn, 0)
}

// readDeadliner is the slice of net.Conn (and netsim.Conn) the server
// needs to bound how long a connection may sit idle or dribble a frame.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// serveConn is ServeConn with an idle/read timeout: when nonzero and
// the connection supports read deadlines, the deadline is re-armed
// before each frame, so a peer that goes silent (or stalls mid-frame)
// holds its server goroutine for at most readTimeout instead of
// forever.
func serveConn(h connHost, conn io.ReadWriter, readTimeout time.Duration) error {
	var rd readDeadliner
	if readTimeout > 0 {
		rd, _ = conn.(readDeadliner)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var scratch connScratch
	for {
		if rd != nil {
			rd.SetReadDeadline(time.Now().Add(readTimeout))
		}
		op, tag, n, err := readRequestHeader(br)
		if err != nil {
			return eofOK(err, bw)
		}
		payload := scratch.grow(int(n))
		if _, err := io.ReadFull(br, payload); err != nil {
			return eofOK(err, bw)
		}

		var status byte
		var reply []byte
		if h.adm != nil && !h.adm.admit() {
			// Load shed: the request queue is full. Answering with a typed
			// error (instead of stalling or dropping the conn) is the
			// brownout contract — the client knows to back off, journal,
			// or try a replica, and the connection stays usable.
			status, reply = statusErr, fmt.Appendf(scratch.reply[:0], "%v: request shed", ErrOverloaded)
		} else {
			status, reply = scratch.handle(h, op, payload)
			if h.adm != nil {
				h.adm.release()
			}
		}
		scratch.reply = reply[:0]
		if err := writeFrame(bw, status, tag, reply); err != nil {
			bw.Flush()
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// eofOK flushes pending responses and maps a disconnect, between or in
// the middle of a frame, to a clean close.
func eofOK(err error, bw *bufio.Writer) error {
	bw.Flush()
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// serverErr turns an error-response payload back into a client-side
// error. The unknown-id failure is re-typed so it matches
// ErrUnknownGlobalID under errors.Is even after a wire crossing — the
// cluster client's replica fallback and read-repair key on exactly that
// distinction ("this replica doesn't have it" vs "the call failed").
func serverErr(payload []byte) error {
	const marker = "taintmap: unknown global id"
	if len(payload) >= len(marker) && string(payload[:len(marker)]) == marker {
		return fmt.Errorf("taintmap: server error: %w%s", ErrUnknownGlobalID, payload[len(marker):])
	}
	// Overload sheds are re-typed the same way: the cluster client's
	// partition-scoped degraded fallback keys on ErrOverloaded.
	const overMarker = "taintmap: server overloaded"
	if len(payload) >= len(overMarker) && string(payload[:len(overMarker)]) == overMarker {
		return fmt.Errorf("taintmap: server error: %w%s", ErrOverloaded, payload[len(overMarker):])
	}
	return fmt.Errorf("taintmap: server error: %s", payload)
}
