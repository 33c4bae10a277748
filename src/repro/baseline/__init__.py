"""Baseline architectures Magma is compared against: the monolithic EPC
(:mod:`repro.baseline.epc`) and CRUD replication
(:mod:`repro.baseline.crud_sync`)."""
