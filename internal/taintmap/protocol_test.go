package taintmap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"dista/internal/netsim"
)

// readAll drains conn until the server closes it, failing the test if
// that takes longer than a few seconds.
func readAll(t *testing.T, conn io.Reader) []byte {
	t.Helper()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	select {
	case b := <-got:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close the connection")
		return nil
	}
}

// roundTripFrame sends one request frame on a raw connection and
// decodes the reply.
func roundTripFrame(t *testing.T, conn io.ReadWriter, op byte, tag uint32, payload []byte) (status byte, reply []byte) {
	t.Helper()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, op, tag, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var hdr [9]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reply header: %v", err)
	}
	if got := binary.BigEndian.Uint32(hdr[1:5]); got != tag {
		t.Fatalf("reply tag = %d, want %d", got, tag)
	}
	reply = make([]byte, binary.BigEndian.Uint32(hdr[5:9]))
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatalf("reply payload: %v", err)
	}
	return hdr[0], reply
}

// retiredFrames are request streams in the retired untagged shape (op
// byte, 4-byte length, payload): each of its op letters, and the old
// mixed sequence of an untagged register, a tagged lookup and an
// untagged stats on one connection.
func retiredFrames() []retiredFrame {
	entries := appendEntries(nil, []uint32{1}, [][]byte{[]byte("x")})
	var mixed []byte
	mixed = append(mixed, untaggedReq('R', []byte("blobA"))...)
	mixed = append(mixed, taggedReq(opLookup, 77, []byte{0, 0, 0, 1})...)
	mixed = append(mixed, untaggedReq('S', nil)...)
	return []retiredFrame{
		{"R", untaggedReq('R', []byte("blob"))},
		{"L", untaggedReq('L', []byte{0, 0, 0, 1})},
		{"B", untaggedReq('B', appendBlobList(nil, [][]byte{[]byte("a")}))},
		{"M", untaggedReq('M', []byte{0, 0, 0, 1})},
		{"S", untaggedReq('S', nil)},
		{"G", untaggedReq('G', nil)},
		{"J", untaggedReq('J', appendMember(nil, Member{Part: 1, Addr: "b:1"}))},
		{"P", untaggedReq('P', entries)},
		{"W", untaggedReq('W', entries)},
		{"mixed", mixed},
	}
}

type retiredFrame struct {
	name  string
	bytes []byte
}

// TestRetiredOpsCloseConnection: a frame in the retired untagged shape
// is a protocol error. Served and browned-out connections alike close
// without writing a reply byte, and the server keeps serving others.
func TestRetiredOpsCloseConnection(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, rf := range retiredFrames() {
		t.Run("Serve/"+rf.name, func(t *testing.T) {
			conn, err := n.Dial("tm:7")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(rf.bytes); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, conn); len(got) != 0 {
				t.Fatalf("server replied % x to a retired frame", got)
			}
			// A second connection on the same server keeps serving.
			next, err := n.Dial("tm:7")
			if err != nil {
				t.Fatal(err)
			}
			defer next.Close()
			if status, reply := roundTripFrame(t, next, opRegister, 1, []byte(rf.name)); status != statusOK || len(reply) != 4 {
				t.Fatalf("register after a retired frame: status %d, reply % x", status, reply)
			}
		})
	}

	// Over the connection cap the shedder reads the same header: a
	// retired frame closes the browned-out connection without a reply.
	l, err := n.Listen("tm:8")
	if err != nil {
		t.Fatal(err)
	}
	capped := NewServer(NewStore(), simAcceptor{l: l}, nil, WithMaxConns(1))
	capped.Start()
	defer capped.Close()
	held, err := n.Dial("tm:8")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if status, _ := roundTripFrame(t, held, opStats, 1, nil); status != statusOK {
		t.Fatalf("in-cap stats: status %d", status)
	}
	for _, rf := range retiredFrames() {
		t.Run("Shed/"+rf.name, func(t *testing.T) {
			conn, err := n.Dial("tm:8")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(rf.bytes); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, conn); len(got) != 0 {
				t.Fatalf("shedder replied % x to a retired frame", got)
			}
			if status, _ := roundTripFrame(t, held, opStats, 2, nil); status != statusOK {
				t.Fatalf("in-cap stats after a shed retired frame: status %d", status)
			}
		})
	}
	if st := capped.Stats(); st.ShedConns != int64(len(retiredFrames())) {
		t.Fatalf("ShedConns = %d, want %d", st.ShedConns, len(retiredFrames()))
	}
}

// TestServiceModelLetters pins the request-kind letter WithServiceModel
// receives for each op: service models and trace counters key on the
// upper-case letters. Stats, ring and join requests are not billed.
func TestServiceModelLetters(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewClusterNode(Member{Part: 0, Addr: "tm:0"},
		[]Member{{Part: 0, Addr: "tm:0"}, {Part: 1, Addr: "tm:1"}}, 2,
		func(addr string) (io.ReadWriteCloser, error) { return nil, errors.New("no peers") })
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var mu sync.Mutex
	var billed []byte
	srv := NewServer(NewStore(), simAcceptor{l: l}, nil, WithClusterNode(node),
		WithServiceModel(func(op byte, items int) {
			mu.Lock()
			billed = append(billed, op)
			mu.Unlock()
		}))
	srv.Start()
	defer srv.Close()
	conn, err := n.Dial("tm:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	entries := appendEntries(nil, []uint32{partitionBase(1) | 1}, [][]byte{[]byte("replica")})
	for i, tc := range []struct {
		op      byte
		payload []byte
		want    string // letters billed; "" = not billed
	}{
		{opRegister, []byte("blob"), "R"},
		{opLookup, []byte{0, 0, 0, 1}, "L"},
		{opRegisterBatch, appendBlobList(nil, [][]byte{[]byte("blob")}), "B"},
		{opLookupBatch, []byte{0, 0, 0, 1}, "M"},
		{opStats, nil, ""},
		{opRing, nil, ""},
		{opJoin, appendMember(nil, Member{Part: 1, Addr: "tm:1"}), ""},
		{opReplicate, entries, "P"},
		{opRepair, entries, "W"},
	} {
		mu.Lock()
		billed = billed[:0]
		mu.Unlock()
		status, reply := roundTripFrame(t, conn, tc.op, uint32(i+1), tc.payload)
		if status != statusOK {
			t.Fatalf("op %q: error reply %q", tc.op, reply)
		}
		mu.Lock()
		got := string(billed)
		mu.Unlock()
		if got != tc.want {
			t.Errorf("op %q billed as %q, want %q", tc.op, got, tc.want)
		}
	}
}

// TestServeConnSteadyStateAllocs: after warm-up, serving a register or
// lookup frame allocates nothing. A connection's setup (bufio buffers,
// scratch growth) is a fixed cost, so a 257-frame connection must
// allocate exactly as much as a 1-frame one.
func TestServeConnSteadyStateAllocs(t *testing.T) {
	store := NewStore()
	id := store.RegisterBlob([]byte("warm"))
	allocs := func(frames int) float64 {
		var reqs []byte
		for i := 0; i < frames; i++ {
			if i%2 == 0 {
				reqs = append(reqs, taggedReq(opRegister, uint32(i), []byte("warm"))...)
			} else {
				reqs = append(reqs, taggedReq(opLookup, uint32(i), binary.BigEndian.AppendUint32(nil, id))...)
			}
		}
		conn := &fuzzConn{r: bytes.NewReader(nil)}
		return testing.AllocsPerRun(20, func() {
			conn.r.Reset(reqs)
			conn.w.Reset()
			if err := ServeConn(store, conn); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(257); many != one {
		t.Fatalf("a 257-frame connection allocates %.0f times, a 1-frame one %.0f: frames allocate", many, one)
	}
}
