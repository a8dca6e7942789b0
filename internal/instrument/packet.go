package instrument

import (
	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
)

// Type 2 wrappers (Fig. 7): packet-oriented natives. The sender fetches
// the data and its taints out of the packet, serializes them into a new
// payload, and sends that via the original native — deliberately *not*
// mutating the caller's packet, whose fields may be reused by following
// code (§III-C). The receiver allocates an enlarged buffer, receives the
// full encoded packet, and splits it back into data and taints.

// PacketSend transmits one datagram payload with its labels. Datagrams
// carry no stream state, so there is no density tracker to consult:
// each packet independently takes the cheapest sound form — passthrough
// when clean, uniform when wholly single-labelled, sparse when the
// dirty runs fit a range table, full groups otherwise. Packet magics
// are self-describing, so the receiver decodes every form (and the
// group-only packets of older senders) unconditionally.
func PacketSend(agent *tracker.Agent, sock *netsim.UDPSocket, data taint.Bytes, dst string) error {
	if agent.Mode() != tracker.ModeDista {
		agent.AddTraffic(len(data.Data), len(data.Data))
		return jni.DatagramSend(sock, data.Data, dst)
	}
	raw, err := encodePacket(agent, data)
	if err != nil {
		return err
	}
	agent.AddTraffic(len(data.Data), len(raw))
	return jni.DatagramSend(sock, raw, dst)
}

// encodePacket builds the cheapest sound datagram encoding of data.
func encodePacket(agent *tracker.Agent, data taint.Bytes) ([]byte, error) {
	if data.Clean() {
		return wire.EncodePacketPassthrough(data.Data), nil
	}
	st, exact := data.Stats(tierScanLimit)
	switch minTier(st, len(data.Data), exact) {
	case tierUniform:
		id, err := registerOne(agent, st.One)
		if err != nil {
			return nil, err
		}
		return wire.EncodePacketUniform(data.Data, id), nil
	case tierSparse:
		ranges, err := registerDirty(agent, data, nil)
		if err != nil {
			return nil, err
		}
		return wire.EncodePacketSparse(data.Data, ranges), nil
	}
	runs, err := registerRuns(agent, data, nil)
	if err != nil {
		return nil, err
	}
	return wire.EncodePacketRuns(data.Data, runs), nil
}

// PacketPeek inspects the next datagram without consuming it — the
// Type 2 wrapper over the peekData native. Decoding is identical to
// PacketReceive.
func PacketPeek(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	if agent.Mode() != tracker.ModeDista {
		return jni.DatagramPeekData(sock, buf.Data)
	}
	enlarged := make([]byte, wire.PacketOverhead+wire.WireLen(len(buf.Data)))
	n, from, err := jni.DatagramPeekData(sock, enlarged)
	if err != nil {
		return 0, "", err
	}
	return decodeInto(agent, enlarged[:n], buf, from)
}

// PacketReceive blocks for one datagram and fills buf with up to
// len(buf.Data) payload bytes and their labels, returning the payload
// length actually stored and the sender address.
func PacketReceive(agent *tracker.Agent, sock *netsim.UDPSocket, buf *taint.Bytes) (int, string, error) {
	if agent.Mode() != tracker.ModeDista {
		// Original native; in phosphor mode the buffer's stale labels
		// survive (Fig. 4 behaviour).
		return jni.DatagramReceive0(sock, buf.Data)
	}

	// Enlarged receive buffer: header + one group per expected byte.
	enlarged := make([]byte, wire.PacketOverhead+wire.WireLen(len(buf.Data)))
	n, from, err := jni.DatagramReceive0(sock, enlarged)
	if err != nil {
		return 0, "", err
	}
	return decodeInto(agent, enlarged[:n], buf, from)
}

// decodeInto splits an encoded datagram into buf's data and labels.
func decodeInto(agent *tracker.Agent, raw []byte, buf *taint.Bytes, from string) (int, string, error) {
	data, runs, err := wire.DecodePacketPrefixRuns(raw)
	if err != nil {
		return 0, "", err
	}
	stored := copy(buf.Data, data)
	runs = trimRuns(runs, stored)
	if wire.RunsAllUntainted(runs) {
		// Clean delivery: clear stale labels without a Taint Map
		// round-trip; a shadow-free buf stays lazy.
		if buf.HasShadow() {
			buf.SetRange(0, stored, taint.Taint{})
		}
		return stored, from, nil
	}
	labels, err := resolveRuns(agent, runs)
	if err != nil {
		return 0, "", err
	}
	adoptRuns(buf, runs, labels)
	return stored, from, nil
}
