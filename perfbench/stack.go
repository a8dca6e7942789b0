package main

import (
	"fmt"
	"io"
	"strings"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/instrument"
	"dista/internal/jre"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// stack is the deployment a round runs on: one netsim fabric, the Taint
// Map servers on it, and agents attached the way a launch script
// attaches them (agent args -> instrument.DialTaintMap -> tracker.New).
type stack struct {
	net     *netsim.Network
	tmSpec  string // the taintmap= agent-arg value
	servers []*taintmap.Server
	nodes   []*taintmap.ClusterNode
	clients []taintmap.Client
	agents  []*tracker.Agent
	trees   []*taint.Tree // agent trees and client resolution trees
	probe   *probe        // nil in end-to-end rounds
}

// simAcceptor adapts a netsim listener to taintmap.Acceptor.
type simAcceptor struct{ l *netsim.Listener }

func (a simAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a simAcceptor) Close() error                        { return a.l.Close() }

// newStack starts members Taint Map servers: one standalone server at
// tm:1, or a cluster with replication factor 2 at tm0:1, tm1:1, ...
// Cluster members are started here rather than by
// taintmap.StartSimCluster so the traced run can count the bytes on
// their replication links.
func newStack(members int, p *probe) (*stack, error) {
	s := &stack{net: netsim.New(), probe: p}
	var opts []taintmap.ServerOption
	if p != nil {
		opts = append(opts, taintmap.WithServiceModel(p.serverHook))
	}
	if members == 1 {
		s.tmSpec = "tm:1"
		if err := s.listen("tm:1", taintmap.NewStore(), opts); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	ms := make([]taintmap.Member, members)
	addrs := make([]string, members)
	for i := range ms {
		addrs[i] = fmt.Sprintf("tm%d:1", i)
		ms[i] = taintmap.Member{Part: uint32(i), Addr: addrs[i]}
	}
	s.tmSpec = strings.Join(addrs, ";")
	ring, err := taintmap.NewRing(1, 2, ms)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		store, err := taintmap.NewPartitionStore(m.Part)
		if err != nil {
			s.close()
			return nil, err
		}
		peerHost := fmt.Sprintf("tm%d:peer", m.Part)
		node, err := taintmap.NewClusterNode(m, ring.Members(), ring.RF, func(addr string) (io.ReadWriteCloser, error) {
			c, err := s.net.DialFrom(peerHost, addr)
			if err != nil || p == nil {
				return c, err
			}
			return countConn{ReadWriteCloser: c, bytes: &p.c[peerBytes], writes: &p.c[peerWrites]}, nil
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		if err := s.listen(m.Addr, store, append([]taintmap.ServerOption{taintmap.WithClusterNode(node)}, opts...)); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) listen(addr string, store *taintmap.Store, opts []taintmap.ServerOption) error {
	l, err := s.net.Listen(addr)
	if err != nil {
		return err
	}
	srv := taintmap.NewServer(store, simAcceptor{l: l}, nil, opts...)
	srv.Start()
	s.servers = append(s.servers, srv)
	return nil
}

// env attaches an agent for node in mode and returns its process. A
// tracking agent dials the Taint Map through instrument.DialTaintMap,
// which picks the resilient client for one address and the cluster
// client for a list. sd is the session side the agent's Taint Map calls
// are traced under (ignored in end-to-end rounds).
func (s *stack) env(node string, mode tracker.Mode, sd *side) (*jre.Env, error) {
	spec := "mode=" + mode.String()
	if mode != tracker.ModeOff {
		spec += ",taintmap=" + s.tmSpec
	}
	args, err := tracker.ParseAgentArgs(spec)
	if err != nil {
		return nil, err
	}
	var opts []tracker.Option
	if len(args.TaintMapAddrs()) > 0 {
		tree := taint.NewTree()
		client, err := instrument.DialTaintMap(args, tree, s.dialer(node), taintmap.ClusterOptions{})
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, client)
		s.trees = append(s.trees, tree)
		if s.probe != nil {
			client = &tracedClient{inner: client, p: s.probe, side: sd}
		}
		opts = append(opts, tracker.WithTaintMap(client))
	}
	agent := tracker.New(node, args.Mode, opts...)
	s.agents = append(s.agents, agent)
	s.trees = append(s.trees, agent.Tree())
	return jre.NewEnv(s.net, agent), nil
}

// dialer is the DialTaintMap dial func of node's agent.
func (s *stack) dialer(node string) func(addr string) (io.ReadWriteCloser, error) {
	local := node + ":tm"
	return func(addr string) (io.ReadWriteCloser, error) {
		c, err := s.net.DialFrom(local, addr)
		if err != nil || s.probe == nil {
			return c, err
		}
		return countConn{ReadWriteCloser: c, bytes: &s.probe.c[rpcBytes], writes: &s.probe.c[rpcWrites]}, nil
	}
}

// traffic sums Agent.Traffic over every agent.
func (s *stack) traffic() (data, wire int64) {
	for _, a := range s.agents {
		d, w := a.Traffic()
		data += d
		wire += w
	}
	return data, wire
}

// treeNodes sums Tree.NodeCount over agent and resolution trees.
func (s *stack) treeNodes() int64 {
	var n int64
	for _, t := range s.trees {
		n += int64(t.NodeCount())
	}
	return n
}

// globalTaints sums the servers' distinct registered taints.
func (s *stack) globalTaints() int64 {
	var n int64
	for _, srv := range s.servers {
		n += int64(srv.Store().Stats().GlobalTaints)
	}
	return n
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	s.net.Shutdown()
}
