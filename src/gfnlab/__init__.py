"""Graph classification lab.

Compares a graph convolutional network against models that move all graph
structure into a feature precomputation step (GFN, GFN-light) or drop the
nonlinear set function entirely (GLN), on a from-scratch numpy training stack.
"""

__version__ = "0.1.0"
