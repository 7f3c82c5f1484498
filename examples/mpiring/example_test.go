package main

// Example runs the program; go test checks what it prints.  The ranks
// print in goroutine order, so the lines are compared as a set.
func Example() {
	main()
	// Unordered output:
	// [rank 0] ring complete, counter = 4
	// [rank 3] allreduce sum of squares = 14
	// [rank 1] allreduce sum of squares = 14
	// [rank 2] allreduce sum of squares = 14
	// [rank 2] bcast of 64KiB from rank 2: 0 corrupted pages
	// [rank 0] allreduce sum of squares = 14
	// [rank 0] bcast of 64KiB from rank 2: 0 corrupted pages
	// [rank 3] bcast of 64KiB from rank 2: 0 corrupted pages
	// [rank 1] bcast of 64KiB from rank 2: 0 corrupted pages
	//
	// all 4 ranks done; virtual time 5.288ms
}
