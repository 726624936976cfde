"""Simulated MPICH2 stack: PMI, communicator, Hydra mpiexec/proxy model."""
