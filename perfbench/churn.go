package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/jre"
)

// Label-churn request shape: 256 B in 8 segments of 32 B, each segment
// with its own fresh label.
const (
	churnSegments = 8
	churnSegSize  = 32
	churnSize     = churnSegments * churnSegSize
)

var labelChurn = &workload{
	name:     "label-churn",
	members:  2,
	sessions: 2,
	warm:     200,
	ops:      3000,
	build:    buildChurn,
}

// buildChurn starts two sessions, each a jre Socket client/server pair
// speaking DataOutputStream.WriteBytes32 / DataInputStream.ReadBytes32.
// Every agent reaches the 2-member, replication-factor-2 cluster through
// taintmap=tm0:1;tm1:1.
func buildChurn(st *stack, mode tracker.Mode, seed int64, round int, tr []*sessTrace) (*rig, error) {
	rg := &rig{}
	var wg sync.WaitGroup
	var closers []func() error
	rg.close = func() {
		for _, c := range closers {
			c()
		}
		wg.Wait()
	}
	for s := 0; s < 2; s++ {
		var ts *sessTrace
		if tr != nil {
			ts = tr[s]
		}
		client, peer := ts.side(), ts.side()
		cli, err := st.env(fmt.Sprintf("cli%d", s), mode, client)
		if err != nil {
			rg.close()
			return nil, err
		}
		srv, err := st.env(fmt.Sprintf("srv%d", s), mode, peer)
		if err != nil {
			rg.close()
			return nil, err
		}
		addr := fmt.Sprintf("srv%d:80", s)
		ss, err := jre.ListenSocket(srv, addr)
		if err != nil {
			rg.close()
			return nil, err
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
			churnServe(srv, sock, peer)
		}()
		sock, err := jre.DialSocket(cli, addr)
		if err != nil {
			rg.close()
			return nil, err
		}
		closers = append(closers, sock.Close)
		rg.sessions = append(rg.sessions, churnClient(cli, srv.Agent.LocalID(), mode, sock, client, seed, round))
	}
	return rg, nil
}

// churnServe echoes each request with a fresh reply label r combined
// into every byte.
func churnServe(env *jre.Env, sock *jre.Socket, sd *side) {
	in := jre.NewDataInputStream(sock.InputStream())
	out := jre.NewDataOutputStream(sock.OutputStream())
	for {
		var req taint.Bytes
		err := sd.call(spanPeerRecv, func() (err error) {
			req, err = in.ReadBytes32()
			return err
		})
		if err != nil {
			return
		}
		req.TaintAll(env.Agent.SourceSeq("churn#reply", "r"))
		if sd.call(spanPeerSend, func() error { return out.WriteBytes32(req) }) != nil {
			return
		}
	}
}

// churnClient returns the session's op runner. Each op labels its 8
// segments with fresh SourceSeq labels q_i and expects every segment back
// labelled exactly {q_i, r}, r being the server's reply label for it.
func churnClient(env *jre.Env, srvLocalID string, mode tracker.Mode, sock *jre.Socket, sd *side, seed int64, round int) func(int) opResult {
	in := jre.NewDataInputStream(sock.InputStream())
	out := jre.NewDataOutputStream(sock.OutputStream())
	served := 0 // requests this session's server has answered
	return func(i int) opResult {
		rng := opRand(seed, round, i)
		req := taint.MakeBytes(churnSize)
		rng.fill(req.Data)
		var qs [churnSegments]taint.Taint
		for j := range qs {
			qs[j] = env.Agent.SourceSeq("churn#request", "q")
			req.SetRange(j*churnSegSize, (j+1)*churnSegSize, qs[j])
		}
		res := opResult{path: pathStream}
		d0, _ := env.Agent.Traffic()
		id, at := sd.startOp(int64(i))
		t0 := time.Now()
		var rep taint.Bytes
		err := sd.call(spanSend, func() error { return out.WriteBytes32(req) })
		if err == nil {
			err = sd.call(spanRecv, func() (err error) {
				rep, err = in.ReadBytes32()
				return err
			})
		}
		res.lat = time.Since(t0)
		sd.endOp(id, at)
		d1, _ := env.Agent.Traffic()
		res.data = 2 * (d1 - d0) // the server echoes what the client sent
		served++
		switch {
		case err != nil:
			res.fail = fmt.Sprintf("label-churn op %d: %v", i, err)
		case !bytes.Equal(rep.Data, req.Data):
			res.fail = fmt.Sprintf("label-churn op %d: reply bytes differ", i)
		case mode != tracker.ModeOff:
			r := taint.TagKey{Value: fmt.Sprintf("r%d", served), LocalID: srvLocalID}
			for j, q := range qs {
				seg := rep.Slice(j*churnSegSize, (j+1)*churnSegSize)
				if !exactly(seg, q.Keys()[0], r) {
					res.fail = fmt.Sprintf("label-churn op %d: segment %d labelled %v, want {%v %v}", i, j, seg.Union().Keys(), q.Keys()[0], r)
					break
				}
			}
		}
		return res
	}
}

// exactly reports whether every byte of b carries exactly the tags want.
func exactly(b taint.Bytes, want ...taint.TagKey) bool {
	t, ok := b.Uniform()
	if !ok || t.Len() != len(want) {
		return false
	}
	for _, k := range want {
		if !t.HasKey(k) {
			return false
		}
	}
	return true
}
