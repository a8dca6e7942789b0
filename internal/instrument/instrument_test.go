package instrument

import (
	"errors"
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// rig is a two-node test rig sharing one simulated network and one
// Taint Map store.
type rig struct {
	net   *netsim.Network
	store *taintmap.Store
	a, b  *tracker.Agent
}

func newRig(t *testing.T, mode tracker.Mode) *rig {
	t.Helper()
	r := &rig{net: netsim.New(), store: taintmap.NewStore()}
	r.a = agentFor("node1", mode, r.store)
	r.b = agentFor("node2", mode, r.store)
	return r
}

func agentFor(name string, mode tracker.Mode, store *taintmap.Store) *tracker.Agent {
	a := tracker.New(name, mode)
	// Wire the client after the agent so it resolves into the agent tree.
	c := taintmap.NewLocalClient(store, a.Tree())
	return tracker.New(name, mode, tracker.WithTaintMap(c), tracker.WithLocalID(a.LocalID()))
}

func (r *rig) endpoints(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	ca, cb := r.net.Pipe()
	return NewEndpoint(r.a, ca), NewEndpoint(r.b, cb)
}

func TestRegistryMatchesPaperTableI(t *testing.T) {
	if got := len(Registry); got != 23 {
		t.Fatalf("registry has %d methods, paper instruments 23", got)
	}
	if got := len(JNIMethods()); got != 13 {
		t.Fatalf("registry has %d JNI natives, paper finds 13", got)
	}
	if got := len(JNIClasses()); got != 5 {
		t.Fatalf("JNI natives span %d classes, paper finds 5", got)
	}
	// Every row of the paper's (partial) Table I must be present with
	// the right type.
	wantRows := []struct {
		class, name string
		typ         MethodType
	}{
		{"SocketInputStream", "socketRead0", TypeStream},
		{"SocketOutputStream", "socketWrite0", TypeStream},
		{"LinuxVirtualMachine", "read", TypeStream},
		{"LinuxVirtualMachine", "write", TypeStream},
		{"PlainDatagramSocketImpl", "send", TypePacket},
		{"PlainDatagramSocketImpl", "receive0", TypePacket},
		{"DirectByteBuffer", "get", TypeDirectBuffer},
		{"DirectByteBuffer", "put", TypeDirectBuffer},
		{"IOUtil", "writeFromNativeBuffer", TypeDirectBuffer},
		{"IOUtil", "readIntoNativeBuffer", TypeDirectBuffer},
		{"WindowsAsynchronousSocketChannelImpl", "implRead", TypeDirectBuffer},
		{"WindowsAsynchronousSocketChannelImpl", "implWrite", TypeDirectBuffer},
	}
	for _, w := range wantRows {
		found := false
		for _, m := range Registry {
			if m.Class == w.class && m.Name == w.name {
				found = true
				if m.Type != w.typ {
					t.Errorf("%s.%s has type %s, want %s", m.Class, m.Name, m.Type, w.typ)
				}
			}
		}
		if !found {
			t.Errorf("registry missing Table I row %s.%s", w.class, w.name)
		}
	}
	for _, m := range Registry {
		if m.Direction != "send" && m.Direction != "receive" && m.Direction != "both" {
			t.Errorf("%s.%s has bad direction %q", m.Class, m.Name, m.Direction)
		}
	}
}

func TestMethodTypeString(t *testing.T) {
	if TypeStream.String() != "1" || TypePacket.String() != "2" || TypeDirectBuffer.String() != "3" {
		t.Fatal("type numerals must match Table I")
	}
	if MethodType(9).String() != "?" {
		t.Fatal("unknown type")
	}
}

func TestStreamDistaPropagatesTaint(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	secret := taint.FromString("vote:1", r.a.Source("src", "vote"))
	if err := sender.Write(secret); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(len(secret.Data))
	n, err := receiver.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != secret.Len() || string(buf.Data[:n]) != "vote:1" {
		t.Fatalf("read %q (%d)", buf.Data[:n], n)
	}
	for i := 0; i < n; i++ {
		if !buf.LabelAt(i).Has("vote") {
			t.Fatalf("byte %d lost its taint", i)
		}
	}
	// The receiver's taint must carry the sender's LocalID.
	keys := buf.LabelAt(0).Keys()
	if keys[0].LocalID != r.a.LocalID() {
		t.Fatalf("taint origin = %q, want %q", keys[0].LocalID, r.a.LocalID())
	}
}

func TestStreamDistaByteLevelPrecision(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	// Mixed payload: only bytes 2..3 are tainted.
	payload := taint.MakeBytes(5)
	copy(payload.Data, "abcde")
	tt := r.a.Source("src", "mid")
	payload.SetLabel(2, tt)
	payload.SetLabel(3, tt)
	if err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(5)
	if _, err := io.ReadFull(readFullAdapter{receiver, &buf}, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tainted := buf.LabelAt(i).Has("mid")
		want := i == 2 || i == 3
		if tainted != want {
			t.Fatalf("byte %d tainted=%v want %v (over/under-tainting)", i, tainted, want)
		}
	}
}

// readFullAdapter drives Endpoint.Read through io.ReadFull while
// keeping the labels in buf.
type readFullAdapter struct {
	e   *Endpoint
	buf *taint.Bytes
}

func (r readFullAdapter) Read(p []byte) (int, error) {
	sub := r.buf.Slice(len(r.buf.Data)-len(p), len(r.buf.Data))
	n, err := r.e.Read(&sub)
	return n, err
}

func TestStreamOffModeNoTaintNoOverhead(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, receiver := r.endpoints(t)
	if err := sender.Write(taint.WrapBytes([]byte("plain"))); err != nil {
		t.Fatal(err)
	}
	buf := taint.WrapBytes(make([]byte, 5))
	n, err := receiver.Read(&buf)
	if err != nil || n != 5 || string(buf.Data) != "plain" {
		t.Fatalf("read %q (%d) %v", buf.Data, n, err)
	}
	if buf.HasShadow() {
		t.Fatal("off mode must not allocate shadows")
	}
	data, wireBytes := r.a.Traffic()
	if data != 5 || wireBytes != 5 {
		t.Fatalf("traffic = %d/%d, want 5/5", data, wireBytes)
	}
}

// TestPhosphorModeLosesInterNodeTaint reproduces the Fig. 4 limitation
// (experiment E11): under intra-node-only tracking the sender's taint
// vanishes and the receiver instead keeps the stale taint of its own
// buffer.
func TestPhosphorModeLosesInterNodeTaint(t *testing.T) {
	r := newRig(t, tracker.ModePhosphor)
	sender, receiver := r.endpoints(t)

	secret := taint.FromString("x", r.a.Source("src", "real-taint"))
	if err := sender.Write(secret); err != nil {
		t.Fatal(err)
	}

	buf := taint.MakeBytes(1)
	stale := r.b.Source("src", "stale-buffer-taint")
	buf.SetLabel(0, stale)
	if _, err := receiver.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.LabelAt(0).Has("real-taint") {
		t.Fatal("phosphor mode must NOT propagate inter-node taint (unsound by design)")
	}
	if !buf.LabelAt(0).Has("stale-buffer-taint") {
		t.Fatal("phosphor mode must keep the parameter's stale taint (Fig. 4)")
	}
}

// TestFigure9Protocol walks the five steps of Figure 9 (experiment E8):
// two tainted bytes sent, one received; the shared taint is registered
// once; the receiver resolves it through the Taint Map.
func TestFigure9Protocol(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	t1 := r.a.Source("src", "t1")
	payload := taint.MakeBytes(2) // b1, b2 both tainted by t1
	payload.Data[0], payload.Data[1] = 'A', 'B'
	payload.SetLabel(0, t1)
	payload.SetLabel(1, t1)

	// Steps ①②③: register + send. b2's taint is already registered when
	// b1's was, so exactly one registration reaches the store.
	if err := sender.Write(payload); err != nil {
		t.Fatal(err)
	}
	st := r.store.Stats()
	if st.GlobalTaints != 1 || st.Registrations != 1 {
		t.Fatalf("after send: %+v, want exactly one registration of t1", st)
	}
	if t1.GlobalID() == 0 {
		t.Fatal("sender must cache the Global ID on the taint (step ②)")
	}

	// Steps ④⑤: Node2 receives only b1 and resolves its taint.
	buf := taint.MakeBytes(1)
	n, err := receiver.Read(&buf)
	if err != nil || n != 1 || buf.Data[0] != 'A' {
		t.Fatalf("read %q (%d) %v", buf.Data[:n], n, err)
	}
	got := buf.LabelAt(0)
	if !got.Has("t1") {
		t.Fatalf("receiver taint = %v", got)
	}
	if got.GlobalID() != t1.GlobalID() {
		t.Fatal("receiver must record the same Global ID")
	}
	if st := r.store.Stats(); st.Lookups != 1 {
		t.Fatalf("lookups = %d, want 1", st.Lookups)
	}

	// Receiving b2 later reuses the receiver-side cache: no new lookup.
	if _, err := receiver.Read(&buf); err != nil {
		t.Fatal(err)
	}
	if st := r.store.Stats(); st.Lookups != 1 {
		t.Fatalf("second byte triggered lookup; cache broken (%d lookups)", st.Lookups)
	}
}

// TestStreamWireOverheadFactor prices a 1000-byte write per taint
// shape: the exact wire bytes of §V-F's 5x group factor for fragmented
// taint, and of one uniform frame for uniform taint once the
// connection's density tracker has settled.
func TestStreamWireOverheadFactor(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name   string
		mk     func(a *tracker.Agent) taint.Bytes
		warmup int // writes before the measured one
		want   int64
	}{
		{
			// Two labels alternating byte by byte: only the group codec
			// carries it, so the first write pays the full 5x plus the
			// one-time stream magic and a constant frame header.
			name: "fragmented",
			mk: func(a *tracker.Agent) taint.Bytes {
				p := taint.MakeBytes(n)
				t1, t2 := a.Source("s", "t1"), a.Source("s", "t2")
				for i := 0; i < n; i++ {
					if i%2 == 0 {
						p.SetLabel(i, t1)
					} else {
						p.SetLabel(i, t2)
					}
				}
				return p
			},
			want: int64(wire.StreamMagicLen + wire.GroupsFrameLen(n)),
		},
		{
			// One label over the whole payload: one Global ID per frame.
			name: "uniform",
			mk: func(a *tracker.Agent) taint.Bytes {
				return taint.FromString(string(make([]byte, n)), a.Source("s", "t"))
			},
			warmup: 24,
			want:   int64(wire.UniformFrameLen(n)),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tracker.ModeDista)
			sender, receiver := r.endpoints(t)
			go func() {
				buf := taint.MakeBytes(n)
				for {
					if _, err := receiver.Read(&buf); err != nil {
						return
					}
				}
			}()
			payload := tc.mk(r.a)
			for i := 0; i < tc.warmup; i++ {
				if err := sender.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
			data0, wire0 := r.a.Traffic()
			if err := sender.Write(payload); err != nil {
				t.Fatal(err)
			}
			data, wireBytes := r.a.Traffic()
			if data-data0 != n || wireBytes-wire0 != tc.want {
				t.Fatalf("traffic = %d/%d, want %d wire bytes", data-data0, wireBytes-wire0, tc.want)
			}
			sender.Conn().Close()
		})
	}
}

func TestStreamFragmentedDelivery(t *testing.T) {
	// A dista read asking for more bytes than are in flight must return
	// the short count like the real native, and a second write must be
	// picked up by subsequent reads.
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	if err := sender.Write(taint.FromString("ab", r.a.Source("s", "g1"))); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(10)
	n, err := receiver.Read(&buf)
	if err != nil || n != 2 {
		t.Fatalf("first read = %d, %v", n, err)
	}
	if err := sender.Write(taint.FromString("cd", r.a.Source("s", "g2"))); err != nil {
		t.Fatal(err)
	}
	n, err = receiver.Read(&buf)
	if err != nil || n != 2 || string(buf.Data[:2]) != "cd" {
		t.Fatalf("second read = %q (%d), %v", buf.Data[:n], n, err)
	}
	if !buf.LabelAt(0).Has("g2") {
		t.Fatal("second group lost taint")
	}
}

func TestStreamEOF(t *testing.T) {
	for _, mode := range []tracker.Mode{tracker.ModeOff, tracker.ModeDista} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			sender, receiver := r.endpoints(t)
			sender.Conn().Close()
			buf := taint.MakeBytes(4)
			if _, err := receiver.Read(&buf); err != io.EOF {
				t.Fatalf("err = %v, want io.EOF", err)
			}
			// EOF must be sticky.
			if _, err := receiver.Read(&buf); err != io.EOF {
				t.Fatalf("second err = %v, want io.EOF", err)
			}
		})
	}
}

func TestStreamTruncatedGroupIsError(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	ca, cb := r.net.Pipe()
	receiver := NewEndpoint(r.b, cb)
	// Write 3 raw bytes (a fraction of one group) and close.
	if err := jni.SocketWrite0(ca, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ca.Close()
	buf := taint.MakeBytes(4)
	if _, err := receiver.Read(&buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDistaWithoutTaintMapErrors(t *testing.T) {
	net := netsim.New()
	a := tracker.New("n", tracker.ModeDista) // no taint map client
	ca, cb := net.Pipe()
	sender := NewEndpoint(a, ca)
	err := sender.Write(taint.FromString("x", a.Source("s", "t")))
	if !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("err = %v, want ErrNoTaintMap", err)
	}
	// Reads fail the same way once groups arrive.
	go jni.SocketWrite0(cb, wire.EncodeGroups(nil, []byte{1}, []uint32{1}))
	buf := taint.MakeBytes(1)
	receiver := NewEndpoint(a, ca)
	if _, err := receiver.Read(&buf); !errors.Is(err, ErrNoTaintMap) {
		t.Fatalf("read err = %v, want ErrNoTaintMap", err)
	}
}

func TestPacketDistaRoundTrip(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, err := r.net.ListenPacket("a:1")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.net.ListenPacket("b:1")
	if err != nil {
		t.Fatal(err)
	}

	payload := taint.FromString("udp-secret", r.a.Source("s", "udp"))
	if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(32)
	n, from, err := PacketReceive(r.b, sb, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf.Data[:n]) != "udp-secret" || from != "a:1" {
		t.Fatalf("got %q from %q", buf.Data[:n], from)
	}
	for i := 0; i < n; i++ {
		if !buf.LabelAt(i).Has("udp") {
			t.Fatalf("byte %d lost taint", i)
		}
	}
}

func TestPacketDistaTruncation(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	payload := taint.FromString("0123456789", r.a.Source("s", "u"))
	if err := PacketSend(r.a, sa, payload, "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(4) // receiver asks for fewer bytes than sent
	n, _, err := PacketReceive(r.b, sb, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || string(buf.Data[:n]) != "0123" {
		t.Fatalf("truncated read = %q (%d)", buf.Data[:n], n)
	}
	if !buf.LabelAt(3).Has("u") {
		t.Fatal("truncated bytes must keep their taints")
	}
}

func TestPacketOffMode(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	if err := PacketSend(r.a, sa, taint.WrapBytes([]byte("plain")), "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.WrapBytes(make([]byte, 8))
	n, _, err := PacketReceive(r.b, sb, &buf)
	if err != nil || string(buf.Data[:n]) != "plain" {
		t.Fatalf("read %q %v", buf.Data[:n], err)
	}
	if buf.HasShadow() {
		t.Fatal("off mode must stay shadow-free")
	}
}

func TestPacketPhosphorStaleLabels(t *testing.T) {
	r := newRig(t, tracker.ModePhosphor)
	sa, _ := r.net.ListenPacket("a:1")
	sb, _ := r.net.ListenPacket("b:1")
	if err := PacketSend(r.a, sa, taint.FromString("x", r.a.Source("s", "real")), "b:1"); err != nil {
		t.Fatal(err)
	}
	buf := taint.MakeBytes(1)
	buf.SetLabel(0, r.b.Source("s", "stale"))
	if _, _, err := PacketReceive(r.b, sb, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.LabelAt(0).Has("real") || !buf.LabelAt(0).Has("stale") {
		t.Fatalf("phosphor packet labels = %v", buf.LabelAt(0))
	}
}

func TestBufferWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)

	src := jni.NewDirectBuffer(8)
	copy(src.Data, "nio-data")
	tt := r.a.Source("s", "nio")
	for i := 4; i < 8; i++ {
		src.SetLabel(i, tt)
	}
	n, err := sender.WriteBuffer(src, 0, 8)
	if err != nil || n != 8 {
		t.Fatalf("WriteBuffer = %d, %v", n, err)
	}

	dst := jni.NewDirectBuffer(8)
	total := 0
	for total < 8 {
		n, err := receiver.ReadBuffer(dst, total, 8)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if string(dst.Data) != "nio-data" {
		t.Fatalf("data = %q", dst.Data)
	}
	for i := 0; i < 8; i++ {
		want := i >= 4
		if got := dst.Label(i).Has("nio"); got != want {
			t.Fatalf("shadow[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestBufferRangeChecks(t *testing.T) {
	r := newRig(t, tracker.ModeOff)
	sender, _ := r.endpoints(t)
	src := jni.NewDirectBuffer(4)
	if _, err := sender.WriteBuffer(src, 2, 9); !errors.Is(err, jni.ErrRange) {
		t.Fatalf("out-of-range buffer write: err = %v, want jni.ErrRange", err)
	}
	if _, err := sender.ReadBuffer(src, -1, 2); !errors.Is(err, jni.ErrRange) {
		t.Fatalf("out-of-range buffer read: err = %v, want jni.ErrRange", err)
	}
}

func TestMixedTaintedAndCleanTrafficSharesConnection(t *testing.T) {
	r := newRig(t, tracker.ModeDista)
	sender, receiver := r.endpoints(t)
	// Alternate tainted and clean writes; all must decode correctly.
	for i := 0; i < 10; i++ {
		var b taint.Bytes
		if i%2 == 0 {
			b = taint.FromString("T", r.a.Source("s", "alt"))
		} else {
			b = taint.WrapBytes([]byte("c"))
		}
		if err := sender.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		buf := taint.MakeBytes(1)
		if _, err := receiver.Read(&buf); err != nil {
			t.Fatal(err)
		}
		wantTaint := i%2 == 0
		if got := buf.LabelAt(0).Has("alt"); got != wantTaint {
			t.Fatalf("msg %d taint=%v want %v", i, got, wantTaint)
		}
	}
}
