package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// server is the connection plumbing shared by the two service types
// (Service, the store server; Worker, the compute server): it owns the
// listening socket, tracks live connections, and hands each accepted
// connection to the service's handler on its own goroutine. Close
// severs everything and waits for all handlers to unwind.
type server struct {
	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// newServer listens on addr and serves each accepted connection with
// handle.
func newServer(addr string, handle func(net.Conn)) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	s := &server{ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop(handle)
	return s, nil
}

// Addr returns the listening address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// StopAccepting closes the listening socket without touching live
// connections — the first half of a graceful drain. Close remains
// responsible for severing connections and joining handlers.
func (s *server) StopAccepting() {
	s.ln.Close()
}

// Close stops accepting, severs every connection, and waits for all
// handlers to unwind.
func (s *server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		// StopAccepting already closed the listener; that is not a
		// failure of this Close.
		return nil
	}
	return err
}

func (s *server) acceptLoop(handle func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// connWriter serializes response writes from concurrent request
// handlers and the subscription notifier onto one connection. A write
// error severs the connection: the response stream can no longer be
// trusted, and closing unblocks the read loop so the handler unwinds.
type connWriter struct {
	conn net.Conn
	mu   sync.Mutex
	bw   *bufio.Writer
}

func newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{conn: conn, bw: bufio.NewWriterSize(conn, 1<<16)}
}

// send frames the segments as one payload without joining them — the
// broadcast path writes a shared frame encoding to N connections with
// only a per-connection header built fresh.
func (w *connWriter) send(reqID uint64, op byte, segs ...[]byte) error {
	w.mu.Lock()
	err := writeMessage(w.bw, reqID, op, segs...)
	w.mu.Unlock()
	if err != nil {
		w.conn.Close()
	}
	return err
}

// sendErr answers a request with a typed error reply (WireError code +
// message); non-WireErrors go out as ErrCodeGeneric.
func (w *connWriter) sendErr(reqID uint64, err error) error {
	return w.send(reqID, opError, encodeWireError(err))
}

// reply answers a request of opcode op: err as an error reply, else
// payload under op|replyBit. A payload over the message limit is
// answered with an error for this request alone, instead of letting
// writeMessage fail and sever every other request on the connection.
func (w *connWriter) reply(reqID uint64, op byte, payload []byte, err error) error {
	if err == nil && len(payload) > maxBody-msgOverhead {
		err = fmt.Errorf("remote: reply to opcode %#02x (%d bytes) exceeds the message limit", op, len(payload))
	}
	if err != nil {
		return w.sendErr(reqID, err)
	}
	return w.send(reqID, op|replyBit, payload)
}
