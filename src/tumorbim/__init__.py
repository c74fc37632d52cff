"""Sharp-interface simulation of vascular tumor growth in an annular domain.

The evolving outer interface and a fixed inner boundary bound an annulus on
which a modified-Helmholtz nutrient field and a harmonic modified-pressure
field are solved by direct boundary integral equations with spectrally
accurate quadrature.  The interface advances through a non-stiff
integrating-factor scheme in tangent-angle / arclength variables.  A
closed-form linear-stability model of the perturbed circle serves as an
independent verification oracle and as a stability-diagram generator.
"""

__version__ = "0.1.0"
