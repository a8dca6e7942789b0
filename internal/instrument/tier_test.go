package instrument

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
)

// uniformStats builds the RunStats of an n-byte wholly t-labelled buffer.
func uniformStats(t taint.Taint, n int) taint.RunStats {
	return taint.RunStats{DirtyBytes: n, DirtyRuns: 1, One: t}
}

func TestDensityTrackerConvergesUniform(t *testing.T) {
	tt := taint.NewTree().NewSource("s", "u")
	var d densityTracker
	if d.tier != tierPassthrough {
		t.Fatalf("fresh tracker tier = %d, want passthrough", d.tier)
	}
	converged := -1
	for i := 0; i < 64; i++ {
		d.observe(uniformStats(tt, 1024), 1024, true)
		if d.tier == tierUniform {
			converged = i
			break
		}
	}
	if converged < 0 {
		t.Fatalf("64 uniform writes never reached the uniform tier (tier %d)", d.tier)
	}
	// Once there, uniform buffers ride the uniform tier.
	if got := d.frameTier(uniformStats(tt, 1024), 1024, true); got != tierUniform {
		t.Fatalf("frameTier = %d, want uniform", got)
	}
	t.Logf("uniform tier reached after %d writes", converged+1)
}

func TestDensityTrackerConvergesSparseAndClean(t *testing.T) {
	tt := taint.NewTree().NewSource("s", "sp")
	var d densityTracker
	// Two islands totalling 1/8 of 64 KiB: inside the sparse bands.
	st := taint.RunStats{DirtyBytes: 8 << 10, DirtyRuns: 2, One: taint.Taint{}}
	for i := 0; i < 16; i++ {
		d.observe(st, 64<<10, true)
	}
	if d.tier != tierSparse {
		t.Fatalf("sparse workload settled on tier %d, want sparse", d.tier)
	}
	if got := d.frameTier(st, 64<<10, true); got != tierSparse {
		t.Fatalf("frameTier = %d, want sparse", got)
	}
	// A fragmented burst densifies immediately...
	d.observe(taint.RunStats{DirtyBytes: 32 << 10, DirtyRuns: 33, One: tt}, 64<<10, false)
	if d.tier != tierGroups {
		t.Fatalf("fragmented burst left tier %d, want immediate groups", d.tier)
	}
	// ...and the way back down must wait out the dwell even once the
	// EWMAs have recovered.
	drop := -1
	for i := 0; i < 64; i++ {
		d.observe(st, 64<<10, true)
		if d.tier == tierSparse {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatalf("64 sparse writes never returned to the sparse tier (tier %d)", d.tier)
	}
	if drop+1 < tierMinDwell {
		t.Fatalf("tier dropped after %d writes, inside the %d-write dwell", drop+1, tierMinDwell)
	}
	// Clean writes never disturb the tainted-traffic classification.
	for i := 0; i < 64; i++ {
		d.observeClean(64 << 10)
	}
	if d.tier != tierSparse {
		t.Fatalf("clean phase moved the tier to %d", d.tier)
	}
}

func TestDensityTrackerFlappingHoldsGroups(t *testing.T) {
	tt := taint.NewTree().NewSource("s", "flap")
	var d densityTracker
	uni := uniformStats(tt, 4096)
	dense := taint.RunStats{DirtyBytes: 4096, DirtyRuns: 32, One: taint.Taint{}}
	for i := 0; i < 16; i++ { // warm up the adversary
		if i%2 == 0 {
			d.observe(uni, 4096, true)
		} else {
			d.observe(dense, 4096, true)
		}
	}
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			d.observe(uni, 4096, true)
		} else {
			d.observe(dense, 4096, true)
		}
		if d.tier != tierGroups {
			t.Fatalf("alternating workload flapped to tier %d at write %d", d.tier, i)
		}
		// Even the uniform halves must ride the groups floor: per-frame
		// downgrades are exactly what the tracker exists to prevent.
		if got := d.frameTier(uni, 4096, true); got != tierGroups {
			t.Fatalf("uniform write under groups floor got tier %d", got)
		}
	}
}

// rawFrame is one parsed frame of a sniffed wire capture.
type rawFrame struct {
	tag byte
	n   int // body length as declared by the header
}

// readAllRaw drains the raw wire bytes from c until EOF.
func readAllRaw(t *testing.T, c *netsim.Conn) []byte {
	t.Helper()
	var all []byte
	buf := make([]byte, 4096)
	for {
		n, err := jni.SocketRead0(c, buf)
		all = append(all, buf[:n]...)
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("raw read: %v", err)
		}
	}
}

// parseFrames splits a framed capture into frames, checking the magic.
func parseFrames(t *testing.T, raw, magic []byte) []rawFrame {
	t.Helper()
	if len(raw) < len(magic) || !bytes.Equal(raw[:len(magic)], magic) {
		t.Fatalf("stream opens %q, want magic %q", raw[:min(len(raw), len(magic))], magic)
	}
	raw = raw[len(magic):]
	var frames []rawFrame
	for len(raw) > 0 {
		if len(raw) < wire.FrameHeaderLen {
			t.Fatalf("truncated frame header (%d bytes left)", len(raw))
		}
		f := rawFrame{tag: raw[0], n: int(binary.BigEndian.Uint32(raw[1:wire.FrameHeaderLen]))}
		if len(raw) < wire.FrameHeaderLen+f.n {
			t.Fatalf("frame %q declares %d body bytes, capture has %d", f.tag, f.n, len(raw)-wire.FrameHeaderLen)
		}
		frames = append(frames, f)
		raw = raw[wire.FrameHeaderLen+f.n:]
	}
	return frames
}

// TestAdaptiveWireTags sniffs the raw stream of an adaptive sender and
// checks the negotiated magic and the tier each phase settles on.
func TestAdaptiveWireTags(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender := NewEndpoint(r.a, ca)

	const n = 256
	tu := r.a.Source("s", "uni")
	uniform := taint.MakeBytes(n)
	uniform.SetRange(0, n, tu)

	sparse := taint.MakeBytes(n)
	sparse.SetRange(8, 16, tu)
	sparse.SetRange(64, 72, tu)

	dense := taint.MakeBytes(n)
	for i := 0; i < n; i += 2 {
		dense.SetLabel(i, tu)
	}

	var idx []int // frame index where each phase starts
	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	writeN := func(b taint.Bytes, k int) {
		for i := 0; i < k; i++ {
			if err := sender.Write(b); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	}
	writeN(uniform, 24)
	idx = append(idx, 24)
	writeN(sparse, 24)
	idx = append(idx, 48)
	writeN(dense, 8)
	idx = append(idx, 56)
	// Clean after a dense history must still be passthrough.
	writeN(taint.MakeBytes(n), 4)
	ca.Close()

	frames := parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil))
	if len(frames) != 60 {
		t.Fatalf("got %d frames, want 60", len(frames))
	}
	// Each phase must converge: its last frame carries the phase's tier.
	if got := frames[idx[0]-1].tag; got != wire.FrameUniform {
		t.Fatalf("uniform phase ended on tag %q, want %q", got, wire.FrameUniform)
	}
	if got := frames[idx[1]-1].tag; got != wire.FrameSparse {
		t.Fatalf("sparse phase ended on tag %q, want %q", got, wire.FrameSparse)
	}
	if got := frames[idx[2]-1].tag; got != wire.FrameGroups {
		t.Fatalf("dense phase ended on tag %q, want %q", got, wire.FrameGroups)
	}
	for i := idx[2]; i < len(frames); i++ {
		if frames[i].tag != wire.FramePassthrough {
			t.Fatalf("clean write %d carried tag %q, want passthrough", i, frames[i].tag)
		}
	}
	// Sanity on declared lengths: a uniform body is id+data, sparse
	// carries its table, passthrough is bare.
	if frames[idx[0]-1].n != wire.GlobalIDLen+n {
		t.Fatalf("uniform body = %d, want %d", frames[idx[0]-1].n, wire.GlobalIDLen+n)
	}
	if frames[idx[1]-1].n != wire.SparseCountLen+2*wire.SparseRangeLen+n {
		t.Fatalf("sparse body = %d, want %d", frames[idx[1]-1].n, wire.SparseCountLen+2*wire.SparseRangeLen+n)
	}
	if frames[len(frames)-1].n != n {
		t.Fatalf("passthrough body = %d, want %d", frames[len(frames)-1].n, n)
	}
}

// TestAdaptiveEndToEndMixed drives one adaptive connection through
// clean, uniform, sparse and dense phases and verifies every delivered
// byte carries exactly the label it was sent with.
func TestAdaptiveEndToEndMixed(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewEndpoint(r.a, ca), NewEndpoint(r.b, cb)

	const msgLen = 64
	const rounds = 48
	tags := map[byte]string{'U': "uni", 'S': "spr", 'D': "dns"}
	srcs := map[byte]taint.Taint{}
	for k, tag := range tags {
		srcs[k] = r.a.Source("s"+tag, tag)
	}

	// wantTag[i] is the label tag byte i of the whole stream must carry
	// ("" = must be clean).
	var wantTag []string
	mkMsg := func(kind byte) taint.Bytes {
		b := taint.MakeBytes(msgLen)
		for i := range b.Data {
			b.Data[i] = kind
		}
		switch kind {
		case 'C':
			for i := 0; i < msgLen; i++ {
				wantTag = append(wantTag, "")
			}
		case 'U':
			b.SetRange(0, msgLen, srcs[kind])
			for i := 0; i < msgLen; i++ {
				wantTag = append(wantTag, tags[kind])
			}
		case 'S':
			b.SetRange(4, 12, srcs[kind])
			b.SetRange(40, 44, srcs[kind])
			for i := 0; i < msgLen; i++ {
				if (i >= 4 && i < 12) || (i >= 40 && i < 44) {
					wantTag = append(wantTag, tags[kind])
				} else {
					wantTag = append(wantTag, "")
				}
			}
		case 'D':
			for i := 0; i < msgLen; i += 2 {
				b.SetLabel(i, srcs[kind])
			}
			for i := 0; i < msgLen; i++ {
				if i%2 == 0 {
					wantTag = append(wantTag, tags[kind])
				} else {
					wantTag = append(wantTag, "")
				}
			}
		}
		return b
	}

	recvErr := make(chan error, 1)
	got := taint.MakeBytes(rounds * msgLen)
	go func() {
		recvErr <- func() error {
			for pos := 0; pos < rounds*msgLen; {
				sub := got.Slice(pos, rounds*msgLen)
				n, err := receiver.Read(&sub)
				if err != nil {
					return fmt.Errorf("read at %d: %w", pos, err)
				}
				pos += n
			}
			return nil
		}()
	}()

	// Phased schedule so every tier gets a steady state, with kind
	// changes inside each phase to cross tier boundaries mid-stream.
	kinds := []byte{}
	for _, phase := range []byte{'U', 'S', 'C', 'D'} {
		for i := 0; i < rounds/4; i++ {
			kinds = append(kinds, phase)
		}
	}
	for _, kind := range kinds {
		if err := sender.Write(mkMsg(kind)); err != nil {
			t.Fatalf("write %q: %v", kind, err)
		}
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}

	for i, want := range wantTag {
		lbl := got.LabelAt(i)
		if want == "" {
			if !lbl.Empty() {
				t.Fatalf("byte %d (%q) grew taint %v", i, got.Data[i], lbl.Values())
			}
			continue
		}
		if !lbl.Has(want) {
			t.Fatalf("byte %d (%q) lost label %q (has %v)", i, got.Data[i], want, lbl.Values())
		}
	}
}

// olderPeerStream is the wire image a pre-DTF2 sender produced for
// msgs, written here byte for byte so the liberal decoder stays tested
// after its writers are gone. format "framed" is the DTF1 stream
// (groups frames for labelled messages, passthrough frames for clean
// ones); "legacy" is the raw group stream with no magic. ids[i] is the
// Global ID every byte of msgs[i] carries, 0 for a clean message.
func olderPeerStream(format string, msgs [][]byte, ids []uint32) []byte {
	var raw []byte
	if format == "framed" {
		raw = wire.AppendStreamMagic(raw)
	}
	for i, m := range msgs {
		var runs []wire.Run
		if ids[i] != 0 {
			runs = []wire.Run{{N: len(m), ID: ids[i]}}
		}
		switch {
		case format == "legacy":
			raw = wire.EncodeRuns(raw, m, runs)
		case ids[i] == 0:
			raw = wire.AppendPassthroughFrame(raw, m)
		default:
			raw = wire.AppendGroupsFrame(raw, m, runs)
		}
	}
	return raw
}

// globalID registers t with the agent's Taint Map, as an older sender
// would have before putting its id on the wire.
func globalID(t *testing.T, a *tracker.Agent, tt taint.Taint) uint32 {
	t.Helper()
	ids, err := a.TaintMap().RegisterBatch([]taint.Taint{tt})
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// readFull reads exactly total data bytes from ep.
func readFull(t *testing.T, ep *Endpoint, total int) taint.Bytes {
	t.Helper()
	got := taint.MakeBytes(total)
	for pos := 0; pos < total; {
		sub := got.Slice(pos, total)
		n, err := ep.Read(&sub)
		if err != nil {
			t.Fatalf("read at %d/%d: %v", pos, total, err)
		}
		pos += n
	}
	return got
}

// TestAdaptiveReceivesFromOlderPeers: the endpoint must decode the DTF1
// framed format and the legacy raw group stream unchanged.
func TestAdaptiveReceivesFromOlderPeers(t *testing.T) {
	for _, format := range []string{"framed", "legacy"} {
		t.Run(format, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			ca, cb := r.net.Pipe()
			id := globalID(t, r.a, r.a.Source("s", "old"))
			raw := olderPeerStream(format,
				[][]byte{[]byte("cross-version"), []byte("+clean")}, []uint32{id, 0})
			if err := jni.SocketWrite0(ca, raw); err != nil {
				t.Fatal(err)
			}
			buf := readFull(t, NewEndpoint(r.b, cb), len("cross-version+clean"))
			if string(buf.Data) != "cross-version+clean" {
				t.Fatalf("got %q", buf.Data)
			}
			for i := range buf.Data {
				if tainted := i < len("cross-version"); tainted != buf.LabelAt(i).Has("old") {
					t.Fatalf("byte %d: labels %v, want tainted=%v", i, buf.LabelAt(i).Values(), tainted)
				}
			}
		})
	}
}

// TestWriteUniformDelivers checks the WriteUniform fast-path API: the
// label rides whatever tier the connection settled on, and an empty
// taint degrades to the passthrough path. The framed and legacy cases
// feed the same receiver the records an older sender's WriteUniform
// put on the wire.
func TestWriteUniformDelivers(t *testing.T) {
	const rounds = 12 // enough for the sender to settle on 'U'
	payload := []byte("record-payload")
	for _, format := range []string{"adaptive", "framed", "legacy"} {
		t.Run(format, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			ca, cb := r.net.Pipe()
			tt := r.a.Source("s", "rec")
			if format == "adaptive" {
				sender := NewEndpoint(r.a, ca)
				for i := 0; i < rounds; i++ {
					if err := sender.WriteUniform(payload, tt); err != nil {
						t.Fatal(err)
					}
				}
				if err := sender.WriteUniform([]byte("trailer"), taint.Taint{}); err != nil {
					t.Fatal(err)
				}
			} else {
				id := globalID(t, r.a, tt)
				var msgs [][]byte
				var ids []uint32
				for i := 0; i < rounds; i++ {
					msgs, ids = append(msgs, payload), append(ids, id)
				}
				msgs, ids = append(msgs, []byte("trailer")), append(ids, 0)
				if err := jni.SocketWrite0(ca, olderPeerStream(format, msgs, ids)); err != nil {
					t.Fatal(err)
				}
			}
			total := rounds*len(payload) + len("trailer")
			got := readFull(t, NewEndpoint(r.b, cb), total)
			for i := 0; i < rounds*len(payload); i++ {
				if !got.LabelAt(i).Has("rec") {
					t.Fatalf("%s: byte %d lost the record label", format, i)
				}
			}
			for i := rounds * len(payload); i < total; i++ {
				if !got.LabelAt(i).Empty() {
					t.Fatalf("%s: trailer byte %d grew taint", format, i)
				}
			}
		})
	}
}

// TestWritevAdaptiveUniformCoalescing sniffs a gathering write on a
// warmed-up adaptive connection: adjacent same-label sources must share
// one uniform frame, split by the clean stretch between them.
func TestWritevAdaptiveUniformCoalescing(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender := NewEndpoint(r.a, ca)

	done := make(chan []byte, 1)
	go func() { done <- readAllRaw(t, cb) }()

	tt := r.a.Source("s", "vec")
	warm := taint.MakeBytes(256)
	warm.SetRange(0, 256, tt)
	const warmups = 24
	for i := 0; i < warmups; i++ {
		if err := sender.Write(warm); err != nil {
			t.Fatal(err)
		}
	}

	mk := func(n int, lbl taint.Taint) *jni.DirectBuffer {
		b := jni.NewDirectBuffer(n)
		if !lbl.Empty() {
			b.B.SetRange(0, n, lbl)
		}
		return b
	}
	srcs := []*jni.DirectBuffer{mk(10, tt), mk(20, tt), mk(30, taint.Taint{}), mk(40, tt)}
	lens := []int{10, 20, 30, 40}
	n, err := sender.WritevBuffers(srcs, lens)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("writev consumed %d, want 100", n)
	}
	ca.Close()

	frames := parseFrames(t, <-done, wire.AppendAdaptiveStreamMagic(nil))
	tail := frames[len(frames)-3:]
	want := []rawFrame{
		{wire.FrameUniform, wire.GlobalIDLen + 30}, // sources 0+1 coalesced
		{wire.FramePassthrough, 30},
		{wire.FrameUniform, wire.GlobalIDLen + 40},
	}
	for i, w := range want {
		if tail[i] != w {
			t.Fatalf("writev frame %d = {%q %d}, want {%q %d}", i, tail[i].tag, tail[i].n, w.tag, w.n)
		}
	}
	for i, f := range frames[:len(frames)-3] {
		if i >= warmups/2 && f.tag != wire.FrameUniform {
			t.Fatalf("warmup frame %d still %q", i, f.tag)
		}
	}
}

// TestWritevAdaptiveLabelsDeliver verifies the coalesced vectored write
// end to end: every byte lands with its source's label.
func TestWritevAdaptiveLabelsDeliver(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	sender, receiver := NewEndpoint(r.a, ca), NewEndpoint(r.b, cb)

	tt := r.a.Source("s", "gather")
	mk := func(fillByte byte, n int, lbl taint.Taint) *jni.DirectBuffer {
		b := jni.NewDirectBuffer(n)
		for i := range b.Data {
			b.Data[i] = fillByte
		}
		if !lbl.Empty() {
			b.B.SetRange(0, n, lbl)
		}
		return b
	}
	srcs := []*jni.DirectBuffer{
		mk('a', 8, tt), mk('b', 8, tt), mk('c', 8, taint.Taint{}), mk('d', 8, tt),
	}
	lens := []int{8, 8, 8, 8}
	if _, err := sender.WritevBuffers(srcs, lens); err != nil {
		t.Fatal(err)
	}
	got := taint.MakeBytes(32)
	for pos := 0; pos < 32; {
		sub := got.Slice(pos, 32)
		n, err := receiver.Read(&sub)
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	for i := 0; i < 32; i++ {
		wantClean := i >= 16 && i < 24
		if wantClean != got.LabelAt(i).Empty() || (!wantClean && !got.LabelAt(i).Has("gather")) {
			t.Fatalf("byte %d (%q): labels %v", i, got.Data[i], got.LabelAt(i).Values())
		}
	}
}

// TestPacketSendTierForms drives every per-datagram tier through the
// UDP wrappers and checks the received labels and wire sizes.
func TestPacketSendTierForms(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	tt := r.a.Source("s", "pkt")
	const n = 64

	check := func(name string, payload taint.Bytes, wantDirty func(int) bool, maxWire int) {
		t.Helper()
		if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		raw := make([]byte, wire.PacketOverhead+wire.WireLen(n))
		rn, _, err := jni.DatagramPeekData(sb, raw)
		if err != nil {
			t.Fatalf("%s: peek raw: %v", name, err)
		}
		if rn > maxWire {
			t.Fatalf("%s: datagram is %d wire bytes, budget %d", name, rn, maxWire)
		}
		buf := taint.MakeBytes(n)
		got, _, err := PacketReceive(r.b, sb, &buf)
		if err != nil || got != n {
			t.Fatalf("%s: receive = %d, %v", name, got, err)
		}
		for i := 0; i < n; i++ {
			if wantDirty(i) != buf.LabelAt(i).Has("pkt") {
				t.Fatalf("%s: byte %d dirty=%v, want %v", name, i, buf.LabelAt(i).Has("pkt"), wantDirty(i))
			}
		}
	}

	uniform := taint.MakeBytes(n)
	uniform.SetRange(0, n, tt)
	check("uniform", uniform, func(int) bool { return true },
		wire.PacketOverhead+wire.GlobalIDLen+n)

	sparse := taint.MakeBytes(n)
	sparse.SetRange(8, 16, tt)
	sparse.SetRange(32, 36, tt)
	check("sparse", sparse, func(i int) bool { return (i >= 8 && i < 16) || (i >= 32 && i < 36) },
		wire.PacketOverhead+wire.SparseCountLen+2*wire.SparseRangeLen+n)

	dense := taint.MakeBytes(n)
	for i := 0; i < n; i += 2 {
		dense.SetLabel(i, tt)
	}
	check("dense", dense, func(i int) bool { return i%2 == 0 },
		wire.PacketOverhead+wire.WireLen(n))

	check("clean", taint.MakeBytes(n), func(int) bool { return false },
		wire.PacketOverhead+n)
}
