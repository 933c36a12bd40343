package repro.lp

/** Exact arbitrary-precision rational arithmetic.
  *
  * The LP feasibility problems in this pipeline have integer data whose
  * right-hand sides come from real cardinalities (feasible by construction).
  * Floating point pivoting can falsely report infeasibility, so the simplex
  * solver works over exact rationals instead — our substitute for Z3.
  */
final class Rational private (val num: BigInt, val den: BigInt) extends Ordered[Rational] {
  // Integer operands (most simplex tableau entries here) skip the gcd.
  def +(o: Rational): Rational =
    if (isWhole && o.isWhole) Rational.whole(num + o.num)
    else Rational(num * o.den + o.num * den, den * o.den)
  def -(o: Rational): Rational =
    if (isWhole && o.isWhole) Rational.whole(num - o.num)
    else Rational(num * o.den - o.num * den, den * o.den)
  def *(o: Rational): Rational =
    if (isWhole && o.isWhole) Rational.whole(num * o.num)
    else Rational(num * o.num, den * o.den)
  def /(o: Rational): Rational = { require(!o.isZero, "division by zero"); Rational(num * o.den, den * o.num) }
  def unary_- : Rational = new Rational(-num, den)
  def isZero: Boolean = num.signum == 0
  def signum: Int = num.signum
  def isWhole: Boolean = den.isValidLong && den.toLong == 1L
  def floor: BigInt = if (num.signum >= 0 || isWhole) num / den else num / den - 1
  def ceil: BigInt = -(-this).floor
  def toDouble: Double = BigDecimal(num).toDouble / BigDecimal(den).toDouble
  override def compare(o: Rational): Int =
    if (isWhole && o.isWhole) num.compare(o.num) else (num * o.den).compare(o.num * den)
  override def equals(o: Any): Boolean = o match {
    case r: Rational => num == r.num && den == r.den
    case _           => false
  }
  override def hashCode: Int = (num, den).hashCode
  override def toString: String = if (isWhole) num.toString else s"$num/$den"
}

object Rational {
  val Zero: Rational = new Rational(0, 1)
  val One: Rational = new Rational(1, 1)
  private def whole(n: BigInt): Rational = if (n.signum == 0) Zero else new Rational(n, One.den)
  def apply(n: BigInt, d: BigInt = 1): Rational = {
    require(d.signum != 0, "zero denominator")
    if (n.signum == 0) Zero
    else {
      val g = n.gcd(d)
      val s = d.signum
      new Rational(n / g * s, d / g * s)
    }
  }
  def apply(n: Long): Rational = apply(BigInt(n))
}
