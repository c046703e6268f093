"""Outside-in benchmark for the airbeam package (see README.md here)."""
