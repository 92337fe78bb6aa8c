"""Tests for the deterministic multiprocess harness."""
