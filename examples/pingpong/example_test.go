package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// pingpong: half-round-trip latency (sim µs) and bandwidth (sim MB/s)
	// ====================================================================
	//   size    eager µs  eager MB/s  auto µs  auto MB/s
	//   ------  --------  ----------  -------  ---------
	//   64B     8.86      7.22        8.86     7.22
	//   1KiB    32.78     31.24       32.78    31.24
	//   8KiB    124.11    66.00       124.11   66.00
	//   64KiB   917.32    71.44       874.76   74.92
	//   512KiB  7306.58   71.76       6418.71  81.68
	//
	// done; protocols switch at 8KiB and 128KiB
}
