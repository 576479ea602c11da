"""Skeleton action recognition with learned dynamic graph topology."""
