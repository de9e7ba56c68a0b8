package netem

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// Station runs a real MAC protocol instance against a socket-backed radio.
type Station struct {
	id     frame.NodeID
	conn   *net.UDPConn
	scale  float64
	s      *sim.Simulator
	inject chan func()
	radio  *SocketRadio
	mac    mac.MAC

	// Deliver receives data payloads handed up by the MAC.
	Deliver func(src frame.NodeID, payload []byte)
	// Sent is invoked when a queued packet completes.
	Sent func(p *mac.Packet)
}

// SocketRadio implements mac.Radio over a UDP connection to the broker.
type SocketRadio struct {
	st      *Station
	handler phy.Handler
	txUntil sim.Time
	bitrate int
}

// ID implements mac.Radio.
func (r *SocketRadio) ID() frame.NodeID { return r.st.id }

// Transmit implements mac.Radio: the frame is shipped to the broker, which
// applies the physics; locally only the airtime bookkeeping is kept.
func (r *SocketRadio) Transmit(f *frame.Frame) sim.Duration {
	air := f.Airtime(r.bitrate)
	if r.Transmitting() {
		panic(fmt.Sprintf("netem: %v transmitting while already transmitting", r.st.id))
	}
	buf, err := f.Marshal()
	if err != nil {
		panic(fmt.Sprintf("netem: marshal: %v", err))
	}
	if _, err := r.st.conn.Write(buf); err != nil {
		log.Printf("netem station %v: send: %v", r.st.id, err)
	}
	r.txUntil = r.st.s.Now() + air
	return air
}

// Transmitting implements mac.Radio.
func (r *SocketRadio) Transmitting() bool { return r.st.s.Now() < r.txUntil }

// CarrierBusy implements mac.Radio. Carrier state is not propagated over
// the emulation link; protocols that depend on it (CSMA, the CarrierSense
// option) belong in the simulator.
func (r *SocketRadio) CarrierBusy() bool { return false }

// Enabled implements mac.Radio.
func (r *SocketRadio) Enabled() bool { return true }

// SetHandler implements mac.Radio.
func (r *SocketRadio) SetHandler(h phy.Handler) { r.handler = h }

// NewStation dials the broker, joins as id at pos, and builds the MAC with
// buildMAC (e.g. a closure around macaw.New). The returned station is ready
// once the broker acknowledged the join.
func NewStation(brokerAddr string, id frame.NodeID, pos geom.Vec3, scale float64, cfg mac.Config,
	buildMAC func(env *mac.Env) mac.MAC) (*Station, error) {

	if scale <= 0 {
		scale = DefaultScale
	}
	raddr, err := net.ResolveUDPAddr("udp", brokerAddr)
	if err != nil {
		return nil, fmt.Errorf("netem: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("netem: %w", err)
	}
	st := &Station{
		id:     id,
		conn:   conn,
		scale:  scale,
		s:      sim.New(int64(id)),
		inject: make(chan func(), 256),
	}
	st.radio = &SocketRadio{st: st, bitrate: cfg.BitrateBPS}
	env := &mac.Env{
		Sim:    st.s,
		Radio:  st.radio,
		Rand:   st.s.NewRand(),
		Cfg:    cfg,
		Blocks: new(mac.Blocks),
		Callbacks: mac.Callbacks{
			Deliver: func(src frame.NodeID, payload []byte) {
				if st.Deliver != nil {
					st.Deliver(src, payload)
				}
			},
			Sent: func(p *mac.Packet) {
				if st.Sent != nil {
					st.Sent(p)
				}
			},
		},
	}
	st.mac = buildMAC(env)

	// Join and wait for the acknowledgement.
	if _, err := conn.Write(marshalControl(control{Op: "join", ID: id, X: pos.X, Y: pos.Y, Z: pos.Z})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netem: join: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		buf, _, err := readDatagram(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("netem: waiting for join ack: %w", err)
		}
		if !isControl(buf) {
			continue
		}
		c, err := parseControl(buf)
		if err == nil && c.Op == "ok" && c.ID == id {
			break
		}
	}
	conn.SetReadDeadline(time.Time{})
	return st, nil
}

// MAC returns the protocol instance (for stats).
func (st *Station) MAC() mac.MAC { return st.mac }

// Enqueue submits a data packet for transmission; safe to call from any
// goroutine.
func (st *Station) Enqueue(p *mac.Packet) {
	st.inject <- func() { st.mac.Enqueue(p) }
}

// Run drives the station until ctx is cancelled, then closes the socket and
// waits for the read loop to drain before returning.
func (st *Station) Run(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.readLoop(ctx)
	}()
	st.s.RunRealtime(ctx, st.scale, st.inject)
	err := st.conn.Close()
	<-done
	return err
}

func (st *Station) readLoop(ctx context.Context) {
	for ctx.Err() == nil {
		buf, _, err := readDeadline(st.conn)
		if err != nil {
			if timeoutErr(err) {
				continue
			}
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("netem station %v: read: %v", st.id, err)
			}
			return
		}
		if isControl(buf) {
			continue
		}
		f, err := frame.Unmarshal(buf)
		if err != nil {
			log.Printf("netem station %v: bad frame: %v", st.id, err)
			continue
		}
		select {
		case st.inject <- func() {
			if st.radio.handler != nil && !st.radio.Transmitting() {
				st.radio.handler.RadioReceive(f)
			}
		}:
		case <-ctx.Done():
			return
		}
	}
}
