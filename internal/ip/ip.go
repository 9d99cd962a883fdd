// Package ip provides compact dual-stack address and prefix types plus a
// binary radix (patricia) tree for CIDR allow/deny lookups, the
// representation used throughout the scanner and the synthetic Internet.
//
// Addr is a two-word (128-bit) comparable value. IPv4 addresses are stored
// in the IPv4-mapped region (::ffff:a.b.c.d), so a one-comparison Is4 test
// gates a zero-cost v4 fast path: V4() is a single truncation, v4 addresses
// sort contiguously in numeric order (and before every global-unicast v6
// address), and v4-only hot paths never pay for the wider form beyond the
// extra word of storage. The whole study manipulates hundreds of millions
// of addresses, so Addr must stay a small comparable struct usable as a map
// key with no heap footprint (net.IP / netip.Addr are deliberately not used:
// this package parses and formats both families itself, and netip appears
// only in the tests, as the oracle the parser and the formatter are fuzzed
// against).
package ip

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// v4InLo marks the IPv4-mapped range: lo>>32 == 0xffff (with hi == 0).
const v4InLo = uint64(0xffff) << 32

// Addr is a dual-stack IP address: 128 bits as two big-endian words. IPv4
// addresses are IPv4-mapped (hi == 0, lo == ::ffff:a.b.c.d); everything
// else is treated as IPv6. The zero Addr is "::" and is neither a valid
// IPv4 nor a routable IPv6 address (see IsZero).
type Addr struct {
	hi, lo uint64
}

// AddrFrom4 returns the Addr for an IPv4 address given in host byte order
// (a.b.c.d == a<<24 | ... | d). It is the inverse of V4.
func AddrFrom4(v uint32) Addr {
	return Addr{lo: v4InLo | uint64(v)}
}

// AddrFrom128 assembles an IPv6 address from its two big-endian 64-bit
// words.
func AddrFrom128(hi, lo uint64) Addr {
	return Addr{hi: hi, lo: lo}
}

// MakeAddr assembles an IPv4 Addr from its four octets.
func MakeAddr(a, b, c, d byte) Addr {
	return AddrFrom4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Is4 reports whether the address is IPv4 (stored IPv4-mapped). This is the
// two-word comparison that gates every v4 fast path.
func (a Addr) Is4() bool {
	return a.hi == 0 && a.lo>>32 == 0xffff
}

// Is6 reports whether the address is IPv6 (anything outside the
// IPv4-mapped range, including the zero Addr "::").
func (a Addr) Is6() bool { return !a.Is4() }

// IsZero reports whether a is the zero Addr ("::"), the not-an-address
// sentinel.
func (a Addr) IsZero() bool { return a.hi == 0 && a.lo == 0 }

// V4 returns the IPv4 address as a host-byte-order uint32. It panics on a
// non-IPv4 address: every caller is a v4-only code path, and silent
// truncation of a v6 address would corrupt scan targets undetectably.
func (a Addr) V4() uint32 {
	if !a.Is4() {
		panic("ip: V4 of non-IPv4 address")
	}
	return uint32(a.lo)
}

// Hi returns the upper 64 bits of the 128-bit form.
func (a Addr) Hi() uint64 { return a.hi }

// Lo returns the lower 64 bits of the 128-bit form.
func (a Addr) Lo() uint64 { return a.lo }

// Word64 projects the address to a uint64 for keyed-hash derivations. For
// IPv4 it is exactly uint64(V4()) — the value the v4-era code fed to every
// seeded hash, preserving all derived streams bit for bit. For IPv6 it is a
// fixed mix of both words, deterministic across runs and platforms.
func (a Addr) Word64() uint64 {
	if a.Is4() {
		return uint64(uint32(a.lo))
	}
	// SplitMix64-style finalizer over both words: cheap, stable, and well
	// distributed for /64-dense hitlists (which vary mostly in lo).
	x := a.hi ^ bits.RotateLeft64(a.lo, 31)
	x ^= a.lo
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

// Word32 is the 32-bit truncation of Word64, for modulo-style selection.
func (a Addr) Word32() uint32 { return uint32(a.Word64()) }

// Compare returns -1, 0, or 1 ordering addresses by their 128-bit value.
// IPv4 addresses keep their numeric order and sort before global-unicast
// IPv6 (2000::/3) addresses.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// Less reports whether a sorts before b.
func (a Addr) Less(b Addr) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	return a.lo < b.lo
}

// Next returns the address one above a (with 128-bit carry).
func (a Addr) Next() Addr { return a.Add(1) }

// Add returns the address n above a (with 128-bit carry).
func (a Addr) Add(n uint64) Addr {
	lo, carry := bits.Add64(a.lo, n, 0)
	return Addr{hi: a.hi + carry, lo: lo}
}

// Sub returns the address n below a (with 128-bit borrow).
func (a Addr) Sub(n uint64) Addr {
	lo, borrow := bits.Sub64(a.lo, n, 0)
	return Addr{hi: a.hi - borrow, lo: lo}
}

// ParseAddr parses dotted-quad IPv4 or RFC 4291 IPv6 notation.
func ParseAddr(s string) (Addr, error) {
	a, ok := parseAddr(s)
	if !ok {
		return Addr{}, fmt.Errorf("ip: invalid address %q", s)
	}
	return a, nil
}

// ParseAddrBytes is ParseAddr over text still sitting in a read buffer: it
// accepts and rejects exactly the inputs ParseAddr does (both instantiate
// one parser) and does not allocate on success.
func ParseAddrBytes(b []byte) (Addr, error) {
	a, ok := parseAddr(b)
	if !ok {
		return Addr{}, fmt.Errorf("ip: invalid address %q", b)
	}
	return a, nil
}

// parseAddr is the one address parser. Text holding a colon is IPv6 in the
// grammar netip.ParseAddr accepts, minus zones; anything else is a dotted
// quad whose octets may carry leading zeros ("010.0.0.1" is 10.0.0.1, as
// strconv.ParseUint read it before this parser existed).
func parseAddr[S string | []byte](s S) (Addr, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return parseAddr6(s)
		}
	}
	v, end, ok := parseQuad(s, 0, false)
	if !ok || end != len(s) {
		return Addr{}, false
	}
	return AddrFrom4(v), true
}

// parseQuad parses four dot-separated decimal octets starting at s[i] and
// returns their value and the index after the last digit. strict refuses
// an octet with a leading zero, as RFC 4291's embedded form does.
func parseQuad[S string | []byte](s S, i int, strict bool) (v uint32, end int, ok bool) {
	for part := 0; part < 4; part++ {
		if part > 0 {
			if i == len(s) || s[i] != '.' {
				return 0, i, false
			}
			i++
		}
		start := i
		var oct uint32
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if strict && i == start+1 && oct == 0 {
				return 0, i, false
			}
			if oct = oct*10 + uint32(s[i]-'0'); oct > 255 {
				return 0, i, false
			}
		}
		if i == start {
			return 0, i, false
		}
		v = v<<8 | oct
	}
	return v, i, true
}

// parseAddr6 parses RFC 4291 text: up to eight colon-separated groups of
// one to four hex digits, at most one "::" standing for one or more zero
// groups, and optionally a strict dotted quad in place of the last two
// groups. Zones ("%eth0") are refused.
func parseAddr6[S string | []byte](s S) (Addr, bool) {
	var g [8]uint16
	n := 0         // groups parsed
	ellipsis := -1 // index in g the "::" expands at
	i := 0
	if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
		ellipsis, i = 0, 2
	}
	for i < len(s) {
		if n == len(g) {
			return Addr{}, false
		}
		start := i
		var acc uint32
		for ; i < len(s); i++ {
			h := hexDigitVal[s[i]]
			if h > 0xf {
				break
			}
			acc = acc<<4 | uint32(h)
		}
		if i == start || i-start > 4 {
			return Addr{}, false
		}
		if i < len(s) && s[i] == '.' {
			// Embedded IPv4: it must be the address's last 32 bits.
			if (ellipsis < 0 && n != 6) || n > 6 {
				return Addr{}, false
			}
			v, end, ok := parseQuad(s, start, true)
			if !ok || end != len(s) {
				return Addr{}, false
			}
			g[n], g[n+1] = uint16(v>>16), uint16(v)
			n += 2
			break
		}
		g[n] = uint16(acc)
		n++
		if i == len(s) {
			break
		}
		// A group is followed by ":" and more text, or by a "::" that may
		// end the address.
		if s[i] != ':' || i+1 == len(s) {
			return Addr{}, false
		}
		i++
		if s[i] == ':' {
			if ellipsis >= 0 {
				return Addr{}, false
			}
			ellipsis = n
			i++
		}
	}
	switch {
	case n < len(g) && ellipsis < 0, n == len(g) && ellipsis >= 0:
		// Too short, or a "::" with no zero group left to stand for.
		return Addr{}, false
	case n < len(g):
		copy(g[len(g)-(n-ellipsis):], g[ellipsis:n])
		clear(g[ellipsis : len(g)-(n-ellipsis)])
	}
	var a Addr
	for j := 0; j < 4; j++ {
		a.hi = a.hi<<16 | uint64(g[j])
		a.lo = a.lo<<16 | uint64(g[j+4])
	}
	return a, true
}

// MustParseAddr is ParseAddr that panics on error, for constants in tests
// and world profiles.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns dotted-quad notation for IPv4 and RFC 5952 canonical form
// for IPv6.
func (a Addr) String() string {
	var b [48]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends the text form String returns to dst, for callers that
// build wire bytes without an intermediate string.
func (a Addr) AppendTo(dst []byte) []byte {
	if a.Is4() {
		v := uint32(a.lo)
		dst = strconv.AppendUint(dst, uint64(v>>24), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(v>>16&0xff), 10)
		dst = append(dst, '.')
		dst = strconv.AppendUint(dst, uint64(v>>8&0xff), 10)
		dst = append(dst, '.')
		return strconv.AppendUint(dst, uint64(v&0xff), 10)
	}
	// RFC 5952: lower-case hex groups without leading zeros, the longest
	// run of two or more zero groups (the first of equal runs) as "::".
	var g [8]uint16
	for j := 0; j < 4; j++ {
		g[j] = uint16(a.hi >> (48 - 16*j))
		g[j+4] = uint16(a.lo >> (48 - 16*j))
	}
	zs, ze := len(g), len(g) // the zero run "::" stands for, g[zs:ze]
	for i := 0; i < len(g); i++ {
		j := i
		for j < len(g) && g[j] == 0 {
			j++
		}
		if j-i >= 2 && j-i > ze-zs {
			zs, ze = i, j
		}
		i = j
	}
	for i := 0; i < len(g); i++ {
		if i == zs {
			dst = append(dst, ':', ':')
			if i = ze; i == len(g) {
				break
			}
		} else if i > 0 {
			dst = append(dst, ':')
		}
		dst = appendHex16(dst, g[i])
	}
	return dst
}

// appendHex16 appends v in lower-case hex without leading zeros.
func appendHex16(dst []byte, v uint16) []byte {
	const digits = "0123456789abcdef"
	switch {
	case v >= 0x1000:
		return append(dst, digits[v>>12], digits[v>>8&0xf], digits[v>>4&0xf], digits[v&0xf])
	case v >= 0x100:
		return append(dst, digits[v>>8], digits[v>>4&0xf], digits[v&0xf])
	case v >= 0x10:
		return append(dst, digits[v>>4], digits[v&0xf])
	}
	return append(dst, digits[v])
}

// Octets returns the four octets of an IPv4 address (panics on IPv6).
func (a Addr) Octets() (byte, byte, byte, byte) {
	v := a.V4()
	return byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)
}

// Slash24 returns the network-analysis block containing a: the /24 for
// IPv4 (the unit of network-level analysis in the paper) and the analogous
// /64 subnet for IPv6 (the unit hitlist studies aggregate by).
func (a Addr) Slash24() Prefix {
	if a.Is4() {
		return Prefix{Base: Addr{lo: a.lo &^ 0xff}, Bits: 24}
	}
	return Prefix{Base: Addr{hi: a.hi}, Bits: 64}
}

// Slash64 returns the /64 subnet containing an IPv6 address (panics on
// IPv4, which has no /64 analog).
func (a Addr) Slash64() Prefix {
	if a.Is4() {
		panic("ip: Slash64 of IPv4 address")
	}
	return Prefix{Base: Addr{hi: a.hi}, Bits: 64}
}

// Prefix is a CIDR prefix. Bits is family-relative: 0–32 for an IPv4 base
// (counting from the first of the 32 IPv4 bits, as in "1.2.3.0/24") and
// 0–128 for an IPv6 base. Base must have its host bits zero; use Canonical
// to normalize.
type Prefix struct {
	Base Addr
	Bits uint8
}

// width returns the family-relative address width of the prefix.
func (p Prefix) width() uint8 {
	if p.Base.Is4() {
		return 32
	}
	return 128
}

// mask128 returns the 128-bit network mask words for a family-relative
// prefix length. For IPv4 the mapped bits (::ffff:0:0/96) are part of the
// network, so the mask covers 96+bits leading bits.
func mask128(is4 bool, bitsN uint8) (mhi, mlo uint64) {
	n := uint(bitsN)
	if is4 {
		n += 96
	}
	switch {
	case n == 0:
		return 0, 0
	case n <= 64:
		return ^uint64(0) << (64 - n), 0
	case n >= 128:
		return ^uint64(0), ^uint64(0)
	default:
		return ^uint64(0), ^uint64(0) << (128 - n)
	}
}

// MakePrefix returns the canonical prefix of the given base and length.
// It panics if bits exceeds the base's family width.
func MakePrefix(base Addr, bitsN uint8) Prefix {
	return Prefix{Base: base, Bits: bitsN}.Canonical()
}

// ParsePrefix parses "a.b.c.d/len" or "hhhh::/len" notation. A bare
// address parses as a full-width host prefix (/32 or /128).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		a, err := ParseAddr(s)
		if err != nil {
			return Prefix{}, err
		}
		if a.Is4() {
			return Prefix{Base: a, Bits: 32}, nil
		}
		return Prefix{Base: a, Bits: 128}, nil
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	width := uint64(32)
	if !a.Is4() {
		width = 128
	}
	bitsN, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || bitsN > width {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q", s)
	}
	return MakePrefix(a, uint8(bitsN)), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(int(p.Bits))
}

// Contains reports whether a is within the prefix. Families never mix: an
// IPv4 prefix contains only IPv4 addresses, an IPv6 prefix only IPv6.
func (p Prefix) Contains(a Addr) bool {
	is4 := p.Base.Is4()
	if a.Is4() != is4 {
		return false
	}
	mhi, mlo := mask128(is4, p.Bits)
	return a.hi&mhi == p.Base.hi && a.lo&mlo == p.Base.lo
}

// Overlaps reports whether the two prefixes share any address. Prefixes of
// different families never overlap.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Base.Is4() != q.Base.Is4() {
		return false
	}
	if p.Bits > q.Bits {
		p, q = q, p
	}
	mhi, mlo := mask128(p.Base.Is4(), p.Bits)
	return q.Base.hi&mhi == p.Base.hi && q.Base.lo&mlo == p.Base.lo
}

// Canonical returns p with host bits cleared. It panics if Bits exceeds
// the base's family width.
func (p Prefix) Canonical() Prefix {
	if p.Bits > p.width() {
		panic("ip: prefix length exceeds family width")
	}
	// For IPv4 the mask always spans the mapped marker (96+Bits leading
	// bits), so masking never changes the base's family.
	mhi, mlo := mask128(p.Base.Is4(), p.Bits)
	return Prefix{Base: Addr{hi: p.Base.hi & mhi, lo: p.Base.lo & mlo}, Bits: p.Bits}
}

// NumAddrs returns the number of addresses covered by the prefix,
// saturating at MaxUint64 for IPv6 prefixes wider than /64.
func (p Prefix) NumAddrs() uint64 {
	host := uint(p.width() - p.Bits)
	if host >= 64 {
		return math.MaxUint64
	}
	return uint64(1) << host
}

// First returns the first (network) address of the prefix.
func (p Prefix) First() Addr { return p.Base }

// Last returns the last (broadcast) address of the prefix.
func (p Prefix) Last() Addr {
	mhi, mlo := mask128(p.Base.Is4(), p.Bits)
	return Addr{hi: p.Base.hi | ^mhi, lo: p.Base.lo | ^mlo}
}

// Nth returns the i-th address within the prefix. It panics if i is out of
// range (an IPv6 prefix wider than /64 accepts any uint64 i).
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.NumAddrs() {
		panic("ip: Nth out of range")
	}
	return p.Base.Add(i)
}

// hexDigitVal maps each hex digit of either case to its value and every
// other byte to 0xff.
var hexDigitVal = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= '0' && c <= '9':
			t[c] = uint8(c - '0')
		case c|0x20 >= 'a' && c|0x20 <= 'f':
			t[c] = uint8(c|0x20-'a') + 10
		default:
			t[c] = 0xff
		}
	}
	return t
}()
