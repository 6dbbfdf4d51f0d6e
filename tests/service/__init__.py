"""Tests for the service layer (repro serve daemon + columnar shard host)."""
