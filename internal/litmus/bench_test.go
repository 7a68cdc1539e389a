package litmus

import "testing"

// BenchmarkExploreEnumerate explores every k=3 enumerated program under
// B+M+I, one full sweep per iteration: the replay-heavy path of
// `hicsim -suite litmus -enumerate`. Run with -benchmem to see what each sweep
// allocates.
func BenchmarkExploreEnumerate(b *testing.B) {
	tests := Enumerate(DefaultEnumOptions(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range tests {
			if _, err := Explore(tc, BMI, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnumerate generates the k=4 enumeration alone, one full
// Enumerate per iteration: the setup every `hicsim -suite litmus
// -enumerate -k 4` sweep pays before it explores. Run with -benchmem to
// see what the canonical-form dedup allocates.
func BenchmarkEnumerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enumSink = Enumerate(DefaultEnumOptions(4))
	}
}

// enumSink keeps BenchmarkEnumerate's result live.
var enumSink []Test
