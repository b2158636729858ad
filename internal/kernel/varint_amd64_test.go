//go:build amd64 && !purego

package kernel

import "testing"

// TestSlowPDEP pins which CPUs keep the delta-varint kernel on the
// portable loop: AMD and Hygon before Zen 3 microcode PDEP.
func TestSlowPDEP(t *testing.T) {
	t.Logf("fast BMI2 on this CPU: %v", fastBMI2)
	for _, c := range []struct {
		vendor string
		family uint32
		slow   bool
	}{
		{"AuthenticAMD", 0x15, true},  // Excavator
		{"AuthenticAMD", 0x17, true},  // Zen 1/2
		{"HygonGenuine", 0x18, true},  // Dhyana (Zen 1)
		{"AuthenticAMD", 0x19, false}, // Zen 3/4
		{"AuthenticAMD", 0x1A, false}, // Zen 5
		{"GenuineIntel", 6, false},
	} {
		if got := slowPDEP(c.vendor, c.family); got != c.slow {
			t.Errorf("slowPDEP(%q, %#x) = %v, want %v", c.vendor, c.family, got, c.slow)
		}
	}
}
