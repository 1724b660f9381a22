// Package packet implements the wire formats the data plane manipulates:
// Ethernet (with 802.1Q VLAN tags), ARP, IPv4 (including fragments), ICMP,
// UDP and TCP. Frames are plain byte slices — exactly what an XDP program
// sees — with typed encoders/decoders and in-place mutators (MAC rewrite,
// TTL decrement with incremental checksum update) layered on top.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// HWAddr is a 48-bit Ethernet MAC address.
type HWAddr [6]byte

// BroadcastHW is the all-ones broadcast address.
var BroadcastHW = HWAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (h HWAddr) IsBroadcast() bool { return h == BroadcastHW }

// IsMulticast reports whether the group bit is set (includes broadcast).
func (h HWAddr) IsMulticast() bool { return h[0]&1 == 1 }

// IsZero reports whether the address is all zeros.
func (h HWAddr) IsZero() bool { return h == HWAddr{} }

func (h HWAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", h[0], h[1], h[2], h[3], h[4], h[5])
}

// ParseHWAddr parses a colon-separated MAC address.
func ParseHWAddr(s string) (HWAddr, error) {
	parts := strings.Split(s, ":")
	var h HWAddr
	if len(parts) != 6 {
		return h, fmt.Errorf("packet: bad MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return h, fmt.Errorf("packet: bad MAC %q: %w", s, err)
		}
		h[i] = byte(v)
	}
	return h, nil
}

// MustHWAddr parses a MAC address, panicking on error. For tests and tables.
func MustHWAddr(s string) HWAddr {
	h, err := ParseHWAddr(s)
	if err != nil {
		panic(err)
	}
	return h
}

// Addr is an IPv4 address held in host byte order so prefix arithmetic is a
// shift and mask.
type Addr uint32

// AddrFrom4 builds an address from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromBytes decodes 4 network-order bytes.
func AddrFromBytes(b []byte) Addr {
	_ = b[3]
	return AddrFrom4(b[0], b[1], b[2], b[3])
}

// PutBytes writes the address into b in network byte order.
func (a Addr) PutBytes(b []byte) {
	_ = b[3]
	b[0] = byte(a >> 24)
	b[1] = byte(a >> 16)
	b[2] = byte(a >> 8)
	b[3] = byte(a)
}

// Octets returns the four octets of the address.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// IsBroadcast reports whether the address is 255.255.255.255.
func (a Addr) IsBroadcast() bool { return a == 0xffffffff }

// IsMulticast reports whether the address is in 224.0.0.0/4.
func (a Addr) IsMulticast() bool { return a>>28 == 0xe }

// IsLoopback reports whether the address is in 127.0.0.0/8.
func (a Addr) IsLoopback() bool { return a>>24 == 127 }

func (a Addr) String() string {
	o := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3])
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	rest := s
	for i := 0; i < 4; i++ {
		part, tail, more := strings.Cut(rest, ".")
		if more != (i < 3) {
			return 0, fmt.Errorf("packet: bad IPv4 address %q", s)
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("packet: bad IPv4 address %q: %w", s, err)
		}
		a, rest = a<<8|Addr(v), tail
	}
	return a, nil
}

// MustAddr parses an address, panicking on error. For tests and tables.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/len" (a bare address is treated as /32).
func ParsePrefix(s string) (Prefix, error) {
	addrStr, bitsStr, found := strings.Cut(s, "/")
	addr, err := ParseAddr(addrStr)
	if err != nil {
		return Prefix{}, err
	}
	bits := 32
	if found {
		bits, err = strconv.Atoi(bitsStr)
		if err != nil || bits < 0 || bits > 32 {
			return Prefix{}, fmt.Errorf("packet: bad prefix length in %q", s)
		}
	}
	return Prefix{Addr: addr, Bits: bits}, nil
}

// MustPrefix parses a prefix, panicking on error. For tests and tables.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the netmask for the prefix length.
func (p Prefix) Mask() Addr {
	if p.Bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Masked returns the prefix with host bits cleared.
func (p Prefix) Masked() Prefix {
	return Prefix{Addr: p.Addr & p.Mask(), Bits: p.Bits}
}

// Contains reports whether the address falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return (a^p.Addr)&p.Mask() == 0
}

func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}
