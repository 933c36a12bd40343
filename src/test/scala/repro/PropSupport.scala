package repro

import org.scalacheck.Prop
import org.scalatest.Assertions

/** Minimal ScalaCheck↔ScalaTest bridge (the scalatestplus artifact is not
  * in the offline cache). Runs a property and fails the suite on falsify.
  */
trait PropSupport { this: Assertions =>
  /** `seed`, if given, fixes the generated cases, so every run checks the same ones. */
  def checkProp(prop: Prop, minTests: Int = 100, seed: Option[Long] = None): Unit = {
    val params = org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(minTests)
    val res = org.scalacheck.Test.check(seed.fold(params)(params.withInitialSeed), prop)
    assert(res.passed, s"property falsified: ${res.status}")
  }
}
