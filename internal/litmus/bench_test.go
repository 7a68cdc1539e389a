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
