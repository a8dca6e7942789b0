package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jre"
)

// Small-mixed op shape: the path, size and taint density of each op are
// drawn per op from the seeded generator.
var (
	mixSizes  = []int{64, 256, 1024, 4096}
	mixLabels = 8 // fixed label set per session, made at setup
)

// Taint densities.
const (
	densClean = iota
	densUniform
	densSparse
	densDense
	densAll // warm-up only: every label of the set, so the memos fill
)

var smallMixed = &workload{
	name:     "small-mixed",
	members:  1,
	sessions: 2,
	warm:     400,
	ops:      8000,
	build:    buildMixed,
}

// mixOp is one op's inputs.
type mixOp struct {
	path, size, dens, a, b int
}

// mixBlock is the number of path x size x density combinations: 4 path
// slots (3 stream, 1 datagram) x 4 sizes x 10 density slots (7 clean,
// 1 uniform, 1 sparse, 1 dense).
const mixBlock = 4 * 4 * 10

// mixSpec draws op i: stream or datagram 75/25, a size from mixSizes,
// density clean 70 / uniform 10 / sparse 10 / dense 10, and two labels
// of the set. Op i takes combination perm[i mod 160] of its block of 160
// ops, perm a seeded permutation, so each block holds the mix exactly
// and runs differ in op order, not in op composition. The first warm-up
// ops of each session paint every label on both paths.
func mixSpec(seed int64, round, i, sessions int) mixOp {
	c := opRand(seed, round, -1-i/mixBlock).perm(mixBlock)[i%mixBlock]
	r := opRand(seed, round, i)
	op := mixOp{path: pathStream, size: mixSizes[c/4%4], a: r.intn(mixLabels)}
	op.b = (op.a + 1 + r.intn(mixLabels-1)) % mixLabels
	if c%4 == 3 {
		op.path = pathDatagram
	}
	switch d := c / 16; {
	case d < 7:
		op.dens = densClean
	case d == 7:
		op.dens = densUniform
	case d == 8:
		op.dens = densSparse
	default:
		op.dens = densDense
	}
	if i < 2*sessions {
		op.path, op.dens, op.size = i/sessions, densAll, 1024
	}
	return op
}

// paint labels p according to op.
func paint(p *taint.Bytes, op mixOp, labels []taint.Taint) {
	n := p.Len()
	switch op.dens {
	case densUniform:
		p.SetRange(0, n, labels[op.a])
	case densSparse:
		// Four dirty islands of n/64 bytes.
		isle := max(n/64, 1)
		for off := 0; off < n; off += n / 4 {
			p.SetRange(off, off+isle, labels[op.a])
		}
	case densDense:
		for i := 0; i+1 < n; i += 2 {
			p.SetLabel(i, labels[op.a])
			p.SetLabel(i+1, labels[op.b])
		}
	case densAll:
		for j, l := range labels {
			p.SetRange(j*n/len(labels), (j+1)*n/len(labels), l)
		}
	}
}

// buildMixed starts two sessions against the standalone Taint Map at
// tm:1. Session 0 streams over a jre Socket (DataOutputStream), session 1
// over a SocketChannel with a vectored GatheringWrite; each also owns a
// DatagramSocket. A tracked peer echoes every op through the same class.
// The datagram echo runs its own agent: each goroutine's Taint Map calls
// must be attributable to the span it has open.
func buildMixed(st *stack, mode tracker.Mode, seed int64, round int, tr []*sessTrace) (*rig, error) {
	rg := &rig{}
	var wg sync.WaitGroup
	var closers []func() error
	rg.close = func() {
		for _, c := range closers {
			c()
		}
		wg.Wait()
	}
	fail := func(err error) (*rig, error) {
		rg.close()
		return nil, err
	}
	for s := 0; s < 2; s++ {
		var ts *sessTrace
		if tr != nil {
			ts = tr[s]
		}
		client, peer, dgPeer := ts.side(), ts.side(), ts.side()
		cli, err := st.env(fmt.Sprintf("cli%d", s), mode, client)
		if err != nil {
			return fail(err)
		}
		pe, err := st.env(fmt.Sprintf("peer%d", s), mode, peer)
		if err != nil {
			return fail(err)
		}
		dpe, err := st.env(fmt.Sprintf("peer%d-dg", s), mode, dgPeer)
		if err != nil {
			return fail(err)
		}
		labels := make([]taint.Taint, mixLabels)
		for j := range labels {
			labels[j] = cli.Agent.Source("mix#label", fmt.Sprintf("L%d", j))
		}

		var sc mixConn
		addr := fmt.Sprintf("peer%d:80", s)
		if s == 0 {
			ss, err := jre.ListenSocket(pe, addr)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, ss.Close)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sock, err := ss.Accept()
				if err != nil {
					return
				}
				defer sock.Close()
				echo(peer, socketConn(sock))
			}()
			sock, err := jre.DialSocket(cli, addr)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, sock.Close)
			sc = socketConn(sock)
		} else {
			ss, err := jre.OpenServerSocketChannel(pe, addr)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, ss.Close)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch, err := ss.Accept()
				if err != nil {
					return
				}
				defer ch.Close()
				echo(peer, channelConn(ch))
			}()
			ch, err := jre.OpenSocketChannel(cli, addr)
			if err != nil {
				return fail(err)
			}
			closers = append(closers, ch.Close)
			sc = channelConn(ch)
		}

		peerUDP := fmt.Sprintf("peer%d-udp:1", s)
		pu, err := jre.OpenDatagramSocket(dpe, peerUDP)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, pu.Close)
		wg.Add(1)
		go func() {
			defer wg.Done()
			echo(dgPeer, datagramConn(pu, ""))
		}()
		cu, err := jre.OpenDatagramSocket(cli, fmt.Sprintf("cli%d-udp:1", s))
		if err != nil {
			return fail(err)
		}
		closers = append(closers, cu.Close)
		du := datagramConn(cu, peerUDP)

		rg.sessions = append(rg.sessions, func(i int) opResult {
			op := mixSpec(seed, round, i, 2)
			p := taint.MakeBytes(op.size)
			opRand(seed, round, i).fill(p.Data)
			paint(&p, op, labels)
			conn := sc
			if op.path == pathDatagram {
				conn = du
			}
			res := opResult{path: op.path}
			d0, _ := cli.Agent.Traffic()
			id, at := client.startOp(int64(i))
			t0 := time.Now()
			var got taint.Bytes
			err := client.call(spanSend, func() error { return conn.send(p) })
			if err == nil {
				err = client.call(spanRecv, func() (err error) {
					got, err = conn.recv()
					return err
				})
			}
			res.lat = time.Since(t0)
			client.endOp(id, at)
			d1, _ := cli.Agent.Traffic()
			res.data = 2 * (d1 - d0) // the peer echoes what the client sent
			switch {
			case err != nil:
				res.fail = fmt.Sprintf("small-mixed op %d: %v", i, err)
			case !bytes.Equal(got.Data, p.Data):
				res.fail = fmt.Sprintf("small-mixed op %d: echoed bytes differ (%d vs %d bytes)", i, got.Len(), p.Len())
			case !sameLabels(got, p):
				res.fail = fmt.Sprintf("small-mixed op %d: echoed labels differ (path %d, density %d)", i, op.path, op.dens)
			}
			return res
		})
	}
	return rg, nil
}

// mixConn is one way of sending a message and receiving one back.
type mixConn struct {
	send func(taint.Bytes) error
	recv func() (taint.Bytes, error)
}

// echo returns every message received on c until c fails.
func echo(sd *side, c mixConn) {
	for {
		var b taint.Bytes
		if sd.call(spanPeerRecv, func() (err error) { b, err = c.recv(); return err }) != nil {
			return
		}
		if sd.call(spanPeerSend, func() error { return c.send(b) }) != nil {
			return
		}
	}
}

func socketConn(sock *jre.Socket) mixConn {
	in := jre.NewDataInputStream(sock.InputStream())
	out := jre.NewDataOutputStream(sock.OutputStream())
	return mixConn{send: out.WriteBytes32, recv: in.ReadBytes32}
}

// channelConn frames each message as a 4-byte length and the payload,
// written together by one vectored GatheringWrite.
func channelConn(ch *jre.SocketChannel) mixConn {
	readFull := func(n int) (taint.Bytes, error) {
		buf := jre.AllocateBuffer(n)
		for buf.HasRemaining() {
			if _, err := ch.Read(buf); err != nil {
				return taint.Bytes{}, err
			}
		}
		buf.Flip()
		return buf.Get(n), nil
	}
	return mixConn{
		send: func(b taint.Bytes) error {
			hdr := jre.WrapBuffer(taint.WrapBytes(binary.BigEndian.AppendUint32(nil, uint32(b.Len()))))
			body := jre.WrapBuffer(b)
			srcs := []*jre.ByteBuffer{hdr, body}
			for hdr.HasRemaining() || body.HasRemaining() {
				if _, err := ch.GatheringWrite(srcs); err != nil {
					return err
				}
			}
			return nil
		},
		recv: func() (taint.Bytes, error) {
			hdr, err := readFull(4)
			if err != nil {
				return taint.Bytes{}, err
			}
			return readFull(int(binary.BigEndian.Uint32(hdr.Data)))
		},
	}
}

// datagramConn sends to dst, or back to the last sender when dst is "".
func datagramConn(sock *jre.DatagramSocket, dst string) mixConn {
	from := dst
	return mixConn{
		send: func(b taint.Bytes) error { return sock.Send(jre.NewDatagramPacket(b, from)) },
		recv: func() (taint.Bytes, error) {
			p := jre.NewReceivePacket(mixSizes[len(mixSizes)-1])
			if err := sock.Receive(p); err != nil {
				return taint.Bytes{}, err
			}
			if dst == "" {
				from = p.Addr
			}
			return p.Payload(), nil
		},
	}
}

// sameLabels reports whether a and b (of equal length) carry the same
// tag set on every byte.
func sameLabels(a, b taint.Bytes) bool {
	type run struct {
		to int
		t  taint.Taint
	}
	runs := func(x taint.Bytes) []run {
		var rs []run
		x.ForEachRun(func(_, to int, t taint.Taint) { rs = append(rs, run{to, t}) })
		return rs
	}
	ra, rb := runs(a), runs(b)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		if !taint.SameSet(ra[i].t, rb[j].t) {
			return false
		}
		switch {
		case ra[i].to < rb[j].to:
			i++
		case ra[i].to > rb[j].to:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(ra) && j == len(rb)
}
