// Package reliability implements the paper's dependability substrate
// (Table 1's "transistor reliability worsening" row and §2.4
// "Verifiability and Reliability"): a real SECDED Hamming(72,64) codec,
// soft-error fault injection with scrubbing, modular-redundancy (DMR/TMR)
// and invariant-checker-coprocessor cost models, and Markov availability
// arithmetic for the paper's five-nines "Always Online" attribute.
package reliability

// Codeword is a SECDED-protected 64-bit word: 64 data bits plus 8 check
// bits (7 Hamming parity bits and one overall parity bit).
type Codeword struct {
	// Bits holds the 72-bit codeword in Hamming position order:
	// positions 1..71 (index 0 unused internally, packed here from bit 0),
	// with parity bits at power-of-two positions and the overall parity
	// bit last.
	lo uint64 // positions 1..64
	hi uint8  // positions 65..72 (72 = overall parity)
}

const codewordBits = 72

func (c Codeword) bit(pos int) uint {
	// pos in [1, 72]
	if pos <= 64 {
		return uint(c.lo>>(pos-1)) & 1
	}
	return uint(c.hi>>(pos-65)) & 1
}

func (c *Codeword) setBit(pos int, v uint) {
	if pos <= 64 {
		c.lo = c.lo&^(1<<(pos-1)) | uint64(v&1)<<(pos-1)
	} else {
		c.hi = c.hi&^(1<<(pos-65)) | uint8(v&1)<<(pos-65)
	}
}

// FlipBit flips one bit of the codeword (bit index 0..71), simulating a
// particle strike.
func (c *Codeword) FlipBit(idx int) {
	pos := idx + 1
	c.setBit(pos, c.bit(pos)^1)
}

// dataPositions lists the 64 non-power-of-two positions in [1, 71] that
// carry data bits, in ascending order.
var dataPositions = func() []int {
	var ps []int
	for p := 1; p <= 71 && len(ps) < 64; p++ {
		if p&(p-1) != 0 { // not a power of two
			ps = append(ps, p)
		}
	}
	return ps
}()

// Encode produces the SECDED codeword for 64 data bits.
func Encode(data uint64) Codeword {
	var c Codeword
	for i, pos := range dataPositions {
		c.setBit(pos, uint(data>>i)&1)
	}
	// Hamming parity bits at positions 1,2,4,8,16,32,64: parity over all
	// positions with that bit set in their index.
	for b := 0; b < 7; b++ {
		p := 1 << b
		parity := uint(0)
		for pos := 1; pos <= 71; pos++ {
			if pos != p && pos&p != 0 {
				parity ^= c.bit(pos)
			}
		}
		c.setBit(p, parity)
	}
	// Overall parity at position 72 over positions 1..71.
	overall := uint(0)
	for pos := 1; pos <= 71; pos++ {
		overall ^= c.bit(pos)
	}
	c.setBit(72, overall)
	return c
}

// DecodeStatus classifies a decode outcome.
type DecodeStatus int

// Decode outcomes.
const (
	// OK means no error was present.
	OK DecodeStatus = iota
	// Corrected means a single-bit error was repaired.
	Corrected
	// Uncorrectable means a double-bit error was detected (data is not
	// trustworthy).
	Uncorrectable
)

func (s DecodeStatus) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	default:
		return "uncorrectable"
	}
}

// Decode extracts the data word, correcting a single-bit error and
// detecting double-bit errors.
func Decode(c Codeword) (uint64, DecodeStatus) {
	// Syndrome: recomputed parity vs stored, bit b of syndrome from
	// parity group 2^b.
	syndrome := 0
	for b := 0; b < 7; b++ {
		p := 1 << b
		parity := uint(0)
		for pos := 1; pos <= 71; pos++ {
			if pos&p != 0 {
				parity ^= c.bit(pos)
			}
		}
		if parity != 0 {
			syndrome |= p
		}
	}
	overall := uint(0)
	for pos := 1; pos <= 72; pos++ {
		overall ^= c.bit(pos)
	}
	status := OK
	switch {
	case syndrome == 0 && overall == 0:
		status = OK
	case overall == 1:
		// Single-bit error (possibly in a parity bit or the overall bit).
		status = Corrected
		if syndrome != 0 && syndrome <= 71 {
			c.setBit(syndrome, c.bit(syndrome)^1)
		} else if syndrome == 0 {
			c.setBit(72, c.bit(72)^1)
		}
	default: // syndrome != 0 && overall == 0
		status = Uncorrectable
	}
	var data uint64
	for i, pos := range dataPositions {
		data |= uint64(c.bit(pos)) << i
	}
	return data, status
}
